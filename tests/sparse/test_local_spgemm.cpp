// The local Gustavson kernel against a dense reference, over several
// semirings, operand layouts, masks, Bloom production and thread counts.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/dcsr_ops.hpp"
#include "sparse/local_spgemm.hpp"

namespace {

using namespace dsg::sparse;

std::vector<Triple<double>> random_triples(std::mt19937_64& rng, index_t rows,
                                           index_t cols, int count) {
    std::vector<Triple<double>> ts;
    for (int i = 0; i < count; ++i)
        ts.push_back({static_cast<index_t>(rng() % rows),
                      static_cast<index_t>(rng() % cols),
                      static_cast<double>(1 + rng() % 9)});
    combine_duplicates<PlusTimes<double>>(ts);
    return ts;
}

/// Dense reference multiply over a semiring.
template <typename SR>
std::map<std::pair<index_t, index_t>, double> dense_reference(
    const std::vector<Triple<double>>& a, const std::vector<Triple<double>>& b,
    index_t inner_offset = 0) {
    (void)inner_offset;
    std::map<std::pair<index_t, index_t>, double> out;
    for (const auto& ta : a)
        for (const auto& tb : b) {
            if (ta.col != tb.row) continue;
            const double term = SR::mul(ta.value, tb.value);
            auto [it, fresh] = out.try_emplace({ta.row, tb.col}, term);
            if (!fresh) it->second = SR::add(it->second, term);
        }
    return out;
}

template <typename V>
std::map<std::pair<index_t, index_t>, V> as_map(const Dcsr<V>& m) {
    std::map<std::pair<index_t, index_t>, V> out;
    m.for_each([&](index_t i, index_t j, const V& v) { out[{i, j}] = v; });
    return out;
}

TEST(LocalSpgemm, TinyHandComputedExample) {
    // A = [1 2; 0 3], B = [4 0; 5 6] -> C = [14 12; 15 18]
    auto A = Dcsr<double>::from_row_grouped(
        2, 2,
        std::vector<Triple<double>>{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}});
    auto B = Csr<double>::from_triples(
        2, 2,
        std::vector<Triple<double>>{{0, 0, 4}, {1, 0, 5}, {1, 1, 6}});
    auto C = spgemm<PlusTimes<double>>(2, 2, as_left(A), as_right(B));
    auto m = as_map(C);
    EXPECT_EQ((m[{0, 0}]), 14.0);
    EXPECT_EQ((m[{0, 1}]), 12.0);
    EXPECT_EQ((m[{1, 0}]), 15.0);
    EXPECT_EQ((m[{1, 1}]), 18.0);
}

TEST(LocalSpgemm, MinPlusShortestTwoHop) {
    // Path 0 -(1)-> 1 -(2)-> 2 and direct 0 -(9)-> 2 in A^2 terms.
    auto A = Dcsr<double>::from_row_grouped(
        3, 3, std::vector<Triple<double>>{{0, 1, 1}, {1, 2, 2}});
    auto C = spgemm<MinPlus<double>>(3, 3, as_left(A), as_right(A));
    auto m = as_map(C);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ((m[{0, 2}]), 3.0);  // 1 + 2
}

class SpgemmLayouts : public ::testing::TestWithParam<int> {};

TEST_P(SpgemmLayouts, RandomizedMatchesDenseReference) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
    const index_t n = 24, k = 18, m = 30;
    for (int trial = 0; trial < 10; ++trial) {
        auto ta = random_triples(rng, n, k, 80);
        auto tb = random_triples(rng, k, m, 80);
        auto expect = dense_reference<PlusTimes<double>>(ta, tb);

        auto a_dcsr = Dcsr<double>::from_row_grouped(n, k, ta);
        auto b_csr = Csr<double>::from_triples(k, m, tb);
        DynamicMatrix<double> a_dyn(n, k), b_dyn(k, m);
        for (const auto& t : ta) a_dyn.insert_or_assign(t.row, t.col, t.value);
        for (const auto& t : tb) b_dyn.insert_or_assign(t.row, t.col, t.value);
        auto b_dcsr = Dcsr<double>::from_row_grouped(k, m, tb);
        auto a_csr = Csr<double>::from_triples(n, k, ta);

        switch (GetParam()) {
            case 0:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_dcsr), as_right(b_csr))),
                          expect);
                break;
            case 1:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_dcsr), as_right(b_dyn))),
                          expect);
                break;
            case 2:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_dyn), as_right(b_dcsr))),
                          expect);
                break;
            case 3:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_csr), as_right(b_dyn))),
                          expect);
                break;
            default:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_dyn), as_right(b_dyn))),
                          expect);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LeftRightCombos, SpgemmLayouts,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(LocalSpgemm, MinPlusRandomizedMatchesReference) {
    std::mt19937_64 rng(77);
    for (int trial = 0; trial < 10; ++trial) {
        auto ta = random_triples(rng, 20, 20, 60);
        auto tb = random_triples(rng, 20, 20, 60);
        auto a = Dcsr<double>::from_row_grouped(20, 20, ta);
        DynamicMatrix<double> b(20, 20);
        for (const auto& t : tb) b.insert_or_assign(t.row, t.col, t.value);
        EXPECT_EQ(as_map(spgemm<MinPlus<double>>(20, 20, as_left(a),
                                                 as_right(b))),
                  (dense_reference<MinPlus<double>>(ta, tb)));
    }
}

TEST(LocalSpgemm, MaskRestrictsOutput) {
    std::mt19937_64 rng(8);
    auto ta = random_triples(rng, 15, 15, 50);
    auto tb = random_triples(rng, 15, 15, 50);
    auto a = Dcsr<double>::from_row_grouped(15, 15, ta);
    auto b = Csr<double>::from_triples(15, 15, tb);

    auto full = dense_reference<PlusTimes<double>>(ta, tb);
    PairSet mask(15);
    // Keep roughly half of the would-be outputs.
    std::map<std::pair<index_t, index_t>, double> expect;
    bool keep = true;
    for (const auto& [coord, v] : full) {
        if (keep) {
            mask.insert(coord.first, coord.second);
            expect[coord] = v;
        }
        keep = !keep;
    }
    SpgemmOptions opts;
    opts.mask = &mask;
    auto c = spgemm<PlusTimes<double>>(15, 15, as_left(a), as_right(b), opts);
    EXPECT_EQ(as_map(c), expect);
}

TEST(LocalSpgemm, EmptyMaskYieldsEmptyResult) {
    auto a = Dcsr<double>::from_row_grouped(
        3, 3, std::vector<Triple<double>>{{0, 0, 1}});
    auto b = Csr<double>::from_triples(3, 3,
                                       std::vector<Triple<double>>{{0, 0, 1}});
    PairSet mask(3);
    SpgemmOptions opts;
    opts.mask = &mask;
    auto c = spgemm<PlusTimes<double>>(3, 3, as_left(a), as_right(b), opts);
    EXPECT_EQ(c.nnz(), 0u);
}

TEST(LocalSpgemm, PatternBitsIdentifyContributingInnerIndices) {
    // a(0, 5) * b(5, 2) and a(0, 70) * b(70, 2) both contribute to (0, 2):
    // bits (5 mod 64) and (70 mod 64) = 6 must be set.
    auto a = Dcsr<double>::from_row_grouped(
        1, 100, std::vector<Triple<double>>{{0, 5, 1.0}, {0, 70, 1.0}});
    auto b = Csr<double>::from_triples(
        100, 3, std::vector<Triple<double>>{{5, 2, 1.0}, {70, 2, 1.0}});
    auto pat = spgemm_pattern(1, 3, as_left(a), as_right(b));
    auto m = as_map(pat);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ((m[{0, 2}]), bloom_bit(5) | bloom_bit(70));
}

TEST(LocalSpgemm, InnerOffsetShiftsBloomBits) {
    auto a = Dcsr<double>::from_row_grouped(
        1, 4, std::vector<Triple<double>>{{0, 1, 1.0}});
    auto b = Csr<double>::from_triples(4, 1,
                                       std::vector<Triple<double>>{{1, 0, 1.0}});
    SpgemmOptions opts;
    opts.inner_offset = 10;  // local k=1 is global k=11
    auto pat = spgemm_pattern(1, 1, as_left(a), as_right(b), opts);
    EXPECT_EQ((as_map(pat)[{0, 0}]), bloom_bit(11));
}

TEST(LocalSpgemm, WithBloomMatchesPlainValuesAndPattern) {
    std::mt19937_64 rng(21);
    auto ta = random_triples(rng, 12, 12, 40);
    auto tb = random_triples(rng, 12, 12, 40);
    auto a = Dcsr<double>::from_row_grouped(12, 12, ta);
    auto b = Csr<double>::from_triples(12, 12, tb);
    auto vb = spgemm_with_bloom<PlusTimes<double>>(12, 12, as_left(a),
                                                   as_right(b));
    auto [values, bits] = split_value_bits(vb);
    EXPECT_EQ(as_map(values), (dense_reference<PlusTimes<double>>(ta, tb)));
    EXPECT_EQ(as_map(bits),
              as_map(spgemm_pattern(12, 12, as_left(a), as_right(b))));
}

class SpgemmThreads : public ::testing::TestWithParam<int> {};

TEST_P(SpgemmThreads, ParallelMatchesSequential) {
    std::mt19937_64 rng(31);
    dsg::par::ThreadPool pool(GetParam());
    for (int trial = 0; trial < 5; ++trial) {
        auto ta = random_triples(rng, 64, 48, 500);
        auto tb = random_triples(rng, 48, 64, 500);
        auto a = Dcsr<double>::from_row_grouped(64, 48, ta);
        auto b = Csr<double>::from_triples(48, 64, tb);
        auto seq = spgemm<PlusTimes<double>>(64, 64, as_left(a), as_right(b));
        SpgemmOptions opts;
        opts.pool = &pool;
        auto par =
            spgemm<PlusTimes<double>>(64, 64, as_left(a), as_right(b), opts);
        EXPECT_EQ(as_map(par), as_map(seq));
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpgemmThreads, ::testing::Values(2, 3, 8));

// A left row with one entry skips the accumulator only when the right rows
// have distinct columns (DynRight); a DCSR update slab may repeat a
// coordinate, and those terms must still be combined.
TEST(LocalSpgemm, SingleEntryRowCombinesDuplicateRightColumns) {
    auto a = Dcsr<double>::from_row_grouped(
        2, 3, std::vector<Triple<double>>{{0, 1, 2.0}, {1, 1, 5.0}});
    auto b = Dcsr<double>::from_row_grouped(
        3, 4,
        std::vector<Triple<double>>{{1, 3, 1.0}, {1, 0, 4.0}, {1, 3, 6.0}});
    auto c = spgemm<PlusTimes<double>>(2, 4, as_left(a), as_right(b));
    EXPECT_EQ(c.nnz(), 4u);
    const auto m = as_map(c);
    EXPECT_EQ((m.at({0, 3})), 14.0);  // 2 * (1 + 6)
    EXPECT_EQ((m.at({0, 0})), 8.0);
    EXPECT_EQ((m.at({1, 3})), 35.0);
    EXPECT_EQ((m.at({1, 0})), 20.0);
}

// The accumulator-free rows (DynRight) produce exactly what the accumulator
// produces for the same right operand held as a DCSR: row ids, column order
// and values, with and without a mask, for value and pattern products.
TEST(LocalSpgemm, SingleEntryRowsMatchAccumulatorBitForBit) {
    std::mt19937_64 rng(31);
    const index_t n = 40;
    std::vector<Triple<double>> ta;
    for (index_t i = 0; i < n; ++i) {
        const int len = i % 3 == 0 ? 2 : 1;  // mostly single-entry rows
        for (int e = 0; e < len; ++e)
            ta.push_back({i, static_cast<index_t>(rng() % n),
                          0.1 + static_cast<double>(rng() % 97) / 7.0});
    }
    combine_duplicates<PlusTimes<double>>(ta);
    const auto a = Dcsr<double>::from_row_grouped(n, n, ta);
    DynamicMatrix<double> bdyn(n, n);
    for (const auto& t : random_triples(rng, n, n, 400))
        bdyn.insert_or_assign(t.row, t.col, t.value / 3.0);
    const auto bdcsr = bdyn.to_dcsr();
    PairSet mask(n);
    for (index_t i = 0; i < n; ++i)
        for (index_t j = i % 2; j < n; j += 2) mask.insert(i, j);

    auto expect_same = [](const auto& x, const auto& y) {
        ASSERT_EQ(x.row_count(), y.row_count());
        for (std::size_t r = 0; r < x.row_count(); ++r) {
            ASSERT_EQ(x.row_id(r), y.row_id(r));
            const auto xc = x.row_cols(r), yc = y.row_cols(r);
            const auto xv = x.row_values(r), yv = y.row_values(r);
            ASSERT_EQ(std::vector<index_t>(xc.begin(), xc.end()),
                      std::vector<index_t>(yc.begin(), yc.end()));
            for (std::size_t e = 0; e < xv.size(); ++e)
                EXPECT_EQ(xv[e], yv[e]);
        }
    };
    for (const PairSet* m : std::vector<const PairSet*>{nullptr, &mask}) {
        SpgemmOptions opts;
        opts.mask = m;
        opts.inner_offset = 5;
        expect_same(
            spgemm<PlusTimes<double>>(n, n, as_left(a), as_right(bdyn), opts),
            spgemm<PlusTimes<double>>(n, n, as_left(a), as_right(bdcsr),
                                      opts));
        expect_same(
            spgemm_pattern(n, n, as_left(a), as_right(bdyn), opts),
            spgemm_pattern(n, n, as_left(a), as_right(bdcsr), opts));
    }
}

TEST(LocalSpgemm, EmptyOperands) {
    Dcsr<double> a(10, 10);
    Csr<double> b(10, 10);
    auto c = spgemm<PlusTimes<double>>(10, 10, as_left(a), as_right(b));
    EXPECT_EQ(c.nnz(), 0u);
}

}  // namespace
