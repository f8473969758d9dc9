#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "sparse/dynamic_matrix.hpp"

namespace {

using dsg::sparse::DynamicMatrix;
using dsg::sparse::index_t;

TEST(DynamicMatrix, InsertFindBasics) {
    DynamicMatrix<double> m(4, 4);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_TRUE(m.insert_or_assign(1, 2, 5.0));
    EXPECT_FALSE(m.insert_or_assign(1, 2, 6.0));  // overwrite, not new
    EXPECT_EQ(m.nnz(), 1u);
    ASSERT_NE(m.find(1, 2), nullptr);
    EXPECT_EQ(*m.find(1, 2), 6.0);
    EXPECT_EQ(m.find(2, 1), nullptr);
}

TEST(DynamicMatrix, StructuralVsNumericalZero) {
    DynamicMatrix<double> m(2, 2);
    m.insert_or_assign(0, 0, 0.0);  // numerically zero, structurally present
    EXPECT_TRUE(m.contains(0, 0));
    EXPECT_EQ(m.nnz(), 1u);
}

TEST(DynamicMatrix, InsertOrAddCombines) {
    DynamicMatrix<double> m(2, 2);
    auto plus = [](double a, double b) { return a + b; };
    EXPECT_TRUE(m.insert_or_add(0, 1, 2.0, plus));
    EXPECT_FALSE(m.insert_or_add(0, 1, 3.0, plus));
    EXPECT_EQ(*m.find(0, 1), 5.0);
    auto min = [](double a, double b) { return std::min(a, b); };
    m.insert_or_add(0, 1, 1.0, min);
    EXPECT_EQ(*m.find(0, 1), 1.0);
}

TEST(DynamicMatrix, EraseSwapsKeepRowConsistent) {
    DynamicMatrix<int> m(1, 100);
    for (index_t j = 0; j < 20; ++j) m.insert_or_assign(0, j, static_cast<int>(j));
    EXPECT_TRUE(m.erase(0, 0));
    EXPECT_FALSE(m.erase(0, 0));
    EXPECT_EQ(m.nnz(), 19u);
    for (index_t j = 1; j < 20; ++j) {
        ASSERT_NE(m.find(0, j), nullptr) << j;
        EXPECT_EQ(*m.find(0, j), static_cast<int>(j));
    }
}

TEST(DynamicMatrix, LongRowsBuildHashIndex) {
    // Cross the kIndexThreshold boundary and verify lookups stay correct.
    DynamicMatrix<int> m(1, 10'000);
    for (index_t j = 0; j < 1'000; ++j) m.insert_or_assign(0, j * 7, 1);
    EXPECT_EQ(m.row_size(0), 1'000u);
    for (index_t j = 0; j < 1'000; ++j) {
        EXPECT_TRUE(m.contains(0, j * 7));
        EXPECT_FALSE(m.contains(0, j * 7 + 1));
    }
}

TEST(DynamicMatrix, ToDcsrPreservesEntries) {
    DynamicMatrix<double> m(5, 5);
    m.insert_or_assign(4, 0, 1.0);
    m.insert_or_assign(0, 4, 2.0);
    m.insert_or_assign(2, 2, 3.0);
    auto d = m.to_dcsr();
    EXPECT_EQ(d.row_count(), 3u);
    EXPECT_EQ(d.row_id(0), 0);
    EXPECT_EQ(d.row_id(2), 4);
    EXPECT_EQ(d.nnz(), 3u);
}

TEST(DynamicMatrix, ClearResets) {
    DynamicMatrix<int> m(3, 3);
    m.insert_or_assign(1, 1, 1);
    m.clear();
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_FALSE(m.contains(1, 1));
    m.insert_or_assign(1, 1, 2);
    EXPECT_EQ(*m.find(1, 1), 2);
}

class DynamicMatrixRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicMatrixRandom, MatchesMapModelUnderMixedWorkload) {
    std::mt19937_64 rng(GetParam());
    const index_t rows = 40;
    const index_t cols = 60;
    DynamicMatrix<int> m(rows, cols);
    std::map<std::pair<index_t, index_t>, int> ref;
    for (int step = 0; step < 30'000; ++step) {
        const index_t i = static_cast<index_t>(rng() % rows);
        const index_t j = static_cast<index_t>(rng() % cols);
        switch (rng() % 4) {
            case 0: {
                m.insert_or_assign(i, j, step);
                ref[{i, j}] = step;
                break;
            }
            case 1: {
                auto plus = [](int a, int b) { return a + b; };
                m.insert_or_add(i, j, 1, plus);
                auto [it, fresh] = ref.try_emplace({i, j}, 1);
                if (!fresh) it->second += 1;
                break;
            }
            case 2: {
                EXPECT_EQ(m.erase(i, j), ref.erase({i, j}) > 0);
                break;
            }
            default: {
                const auto* p = m.find(i, j);
                auto it = ref.find({i, j});
                if (it == ref.end()) {
                    EXPECT_EQ(p, nullptr);
                } else {
                    ASSERT_NE(p, nullptr);
                    EXPECT_EQ(*p, it->second);
                }
            }
        }
    }
    EXPECT_EQ(m.nnz(), ref.size());
    // Full scan agrees as well.
    std::map<std::pair<index_t, index_t>, int> scanned;
    m.for_each([&](index_t i, index_t j, int v) { scanned[{i, j}] = v; });
    EXPECT_EQ(scanned, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicMatrixRandom,
                         ::testing::Values(1u, 2u, 3u, 99u));

TEST(DynamicMatrix, MemoryBytesGrowsWithContent) {
    DynamicMatrix<double> m(100, 100);
    const auto before = m.memory_bytes();
    for (index_t i = 0; i < 100; ++i)
        for (index_t j = 0; j < 20; ++j) m.insert_or_assign(i, j, 1.0);
    EXPECT_GT(m.memory_bytes(), before);
}

// A row that grows and then loses most of its entries gives the memory back
// (rows keep no largest-ever capacity), and every surviving entry stays
// findable through the rebuilt index while the row keeps churning.
TEST(DynamicMatrix, EraseGivesShrunkRowsMemoryBack) {
    DynamicMatrix<double> m(2, 1000);
    const auto empty_bytes = m.memory_bytes();
    std::map<index_t, double> ref;
    for (index_t j = 0; j < 512; ++j) {
        m.insert_or_assign(0, j, static_cast<double>(j));
        ref[j] = static_cast<double>(j);
    }
    const auto full_bytes = m.memory_bytes();
    for (index_t j = 0; j < 500; ++j) {
        ASSERT_TRUE(m.erase(0, j));
        ref.erase(j);
    }
    EXPECT_LT(m.memory_bytes() - empty_bytes, (full_bytes - empty_bytes) / 8);

    std::mt19937_64 rng(7);
    for (int step = 0; step < 5000; ++step) {
        const auto j = static_cast<index_t>(rng() % 1000);
        if (rng() % 2 == 0) {
            m.insert_or_assign(0, j, static_cast<double>(step));
            ref[j] = static_cast<double>(step);
        } else {
            EXPECT_EQ(m.erase(0, j), ref.erase(j) == 1);
        }
    }
    ASSERT_EQ(m.nnz(), ref.size());
    for (index_t j = 0; j < 1000; ++j) {
        const double* v = m.find(0, j);
        const auto it = ref.find(j);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "col " << j;
        if (v != nullptr) {
            EXPECT_EQ(*v, it->second);
        }
    }
    // Emptied, the row keeps at most a small row's worth.
    for (const auto& [j, v] : ref) ASSERT_TRUE(m.erase(0, j));
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_LT(m.memory_bytes() - empty_bytes, (full_bytes - empty_bytes) / 8);
}

// add_row into an empty row takes the row in one piece: past the index
// threshold the hash index is built once, every column is found, and the
// row costs no more memory than the same row inserted entry by entry.
TEST(DynamicMatrix, AddRowIntoEmptyRowCrossesIndexThreshold) {
    constexpr auto kThreshold = DynamicMatrix<double>::kIndexThreshold;
    auto add = [](double a, double b) { return a + b; };
    for (std::size_t len = 1; len <= 6 * kThreshold; ++len) {
        std::vector<index_t> cols;
        std::vector<double> vals;
        for (std::size_t x = 0; x < len; ++x) {
            cols.push_back(static_cast<index_t>((x * 37) % 101));
            vals.push_back(0.5 + static_cast<double>(x));
        }
        DynamicMatrix<double> bulk(3, 103), single(3, 103);
        bulk.add_row(1, cols, vals, add);
        for (std::size_t x = 0; x < len; ++x)
            single.insert_or_add(1, cols[x], vals[x], add);
        ASSERT_EQ(bulk.nnz(), len);
        EXPECT_EQ(bulk.row_size(1), len);
        for (std::size_t x = 0; x < len; ++x) {
            const double* v = bulk.find(1, cols[x]);
            ASSERT_NE(v, nullptr) << "len " << len << " col " << cols[x];
            EXPECT_EQ(*v, vals[x]);
        }
        EXPECT_EQ(bulk.find(1, 102), nullptr);
        EXPECT_LE(bulk.memory_bytes(), single.memory_bytes()) << "len " << len;
        // The row stays fully usable after the bulk path.
        EXPECT_TRUE(bulk.insert_or_add(1, 102, 2.0, add));
        EXPECT_TRUE(bulk.erase(1, cols[0]));
        EXPECT_EQ(bulk.nnz(), len);
        EXPECT_NE(bulk.find(1, 102), nullptr);
    }
}

// Into a non-empty row, add_row is insert_or_add entry by entry.
TEST(DynamicMatrix, AddRowIntoNonEmptyRowEqualsInsertOrAdd) {
    auto add = [](double a, double b) { return a + b; };
    for (const index_t seed_len : {3, 20}) {
        DynamicMatrix<double> bulk(2, 64), single(2, 64);
        for (index_t j = 0; j < seed_len; ++j) {
            bulk.insert_or_assign(0, 2 * j, 1.0);
            single.insert_or_assign(0, 2 * j, 1.0);
        }
        std::vector<index_t> cols;
        std::vector<double> vals;
        for (index_t j = 0; j < 30; j += 3) {  // hits old and new columns
            cols.push_back(j);
            vals.push_back(static_cast<double>(j) + 0.25);
        }
        bulk.add_row(0, cols, vals, add);
        for (std::size_t x = 0; x < cols.size(); ++x)
            single.insert_or_add(0, cols[x], vals[x], add);
        EXPECT_EQ(bulk.nnz(), single.nnz());
        const auto br = bulk.row(0), sr = single.row(0);
        ASSERT_EQ(br.size(), sr.size());
        for (std::size_t e = 0; e < br.size(); ++e) {
            EXPECT_EQ(br[e].col, sr[e].col);
            EXPECT_EQ(br[e].value, sr[e].value);
        }
    }
}

}  // namespace
