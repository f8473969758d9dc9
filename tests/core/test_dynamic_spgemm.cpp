// Algorithm 1 (algebraic dynamic SpGEMM): the maintained product equals a
// from-scratch recomputation after arbitrary sequences of algebraic updates,
// over (+,*) and (min,+); COMPUTEPATTERN produces a superset structure with
// correct Bloom bits; communication volume beats static SUMMA for small
// batches.
#include <gtest/gtest.h>

#include <random>

#include "common/grid_shapes.hpp"
#include "core/dynamic_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "dist_test_utils.hpp"

namespace {

using namespace dsg;
using core::build_dynamic_matrix;
using core::build_update_matrix;
using core::compute_pattern;
using core::DistDynamicMatrix;
using core::dynamic_spgemm_algebraic;
using core::ProcessGrid;
using core::summa_multiply;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::MinPlus;
using sparse::PlusTimes;
using sparse::Triple;
using test::as_map;
using test::CoordMap;
using test::random_triples;
using test::reference_add;
using test::reference_multiply;

using dsg::test::GridCase;

class DynSpgemmP : public ::testing::TestWithParam<GridCase> {};

TEST_P(DynSpgemmP, InsertionsIntoAMatchRecompute) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(100);
        const index_t n = 26, kk = 22, m = 24;
        auto ta = random_triples(rng, n, kk, 140);
        auto tb = random_triples(rng, kk, m, 180);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto empty_unless0 = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, kk,
                                                         empty_unless0(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, kk, m,
                                                         empty_unless0(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);

        CoordMap am = as_map(ta);
        const CoordMap bm = as_map(tb);
        // Three batches of insertions into A (B stays static).
        for (int batch = 0; batch < 3; ++batch) {
            auto upd = random_triples(rng, n, kk, 25);
            sparse::combine_duplicates<PlusTimes<double>>(upd);
            auto Astar = build_update_matrix(grid, n, kk, empty_unless0(upd));
            core::DistDcsr<double> Bstar(grid, kk, m);  // empty
            // Dynamic update of C, then of A itself.
            dynamic_spgemm_algebraic<PlusTimes<double>>(C, A, Astar, B, Bstar, dopts);
            core::add_update<PlusTimes<double>>(A, Astar, pool.get());
            am = reference_add<PlusTimes<double>>(am, upd);
            test::expect_matches(
                C, reference_multiply<PlusTimes<double>>(am, bm));
        }
    });
}

TEST_P(DynSpgemmP, SimultaneousUpdatesOfBothOperands) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(200);
        const index_t n = 20;
        auto ta = random_triples(rng, n, n, 120);
        auto tb = random_triples(rng, n, n, 120);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);
        CoordMap am = as_map(ta), bm = as_map(tb);

        for (int batch = 0; batch < 3; ++batch) {
            auto ua = random_triples(rng, n, n, 20, -4.0, 4.0);
            auto ub = random_triples(rng, n, n, 20, -4.0, 4.0);
            sparse::combine_duplicates<PlusTimes<double>>(ua);
            sparse::combine_duplicates<PlusTimes<double>>(ub);
            auto Astar = build_update_matrix(grid, n, n, feed(ua));
            auto Bstar = build_update_matrix(grid, n, n, feed(ub));
            // C' = C + A* B' + A B': apply B's update *first* so Bprime is
            // available, keep A pre-update for the A B* term.
            core::add_update<PlusTimes<double>>(B, Bstar, pool.get());
            dynamic_spgemm_algebraic<PlusTimes<double>>(C, A, Astar, B, Bstar, dopts);
            core::add_update<PlusTimes<double>>(A, Astar, pool.get());
            am = reference_add<PlusTimes<double>>(am, ua);
            bm = reference_add<PlusTimes<double>>(bm, ub);
            test::expect_matches(
                C, reference_multiply<PlusTimes<double>>(am, bm));
        }
    });
}

// build_update_matrix keeps duplicate coordinates, so the A* and B* slabs
// may repeat an entry (within one rank's feed and across ranks). Products
// against the B* slab, whose rows can repeat a column, must still combine
// them; the 1x4 shape also runs an interior tree node's merge. Sparse A and
// B leave many single-entry rows in A and empty rows in C, where an
// uncombined duplicate would land in C as a second entry.
TEST_P(DynSpgemmP, DuplicateUpdateCoordinatesMatchRecompute) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(250);
        const index_t n = 20;
        auto ta = random_triples(rng, n, n, 30);
        auto tb = random_triples(rng, n, n, 40);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed0 = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        // Rank r feeds every p-th update, so a repeated coordinate may
        // arrive from two ranks.
        auto feed_spread = [&](const std::vector<Triple<double>>& ts) {
            std::vector<Triple<double>> mine;
            for (std::size_t x = 0; x < ts.size(); ++x)
                if (static_cast<int>(x) % c.size() == c.rank())
                    mine.push_back(ts[x]);
            return mine;
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed0(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed0(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);
        CoordMap am = as_map(ta), bm = as_map(tb);

        for (int batch = 0; batch < 3; ++batch) {
            auto ua = random_triples(rng, n, n, 16, -4.0, 4.0);
            auto ub = random_triples(rng, n, n, 16, -4.0, 4.0);
            // Repeat every third coordinate with a fresh value.
            for (auto* u : {&ua, &ub}) {
                const std::size_t len = u->size();
                for (std::size_t x = 0; x < len; x += 3) {
                    auto dup = (*u)[x];
                    dup.value = 0.5 + static_cast<double>(x % 7);
                    u->push_back(dup);
                }
            }
            auto Astar = build_update_matrix(grid, n, n, feed_spread(ua));
            auto Bstar = build_update_matrix(grid, n, n, feed_spread(ub));
            core::add_update<PlusTimes<double>>(B, Bstar, pool.get());
            dynamic_spgemm_algebraic<PlusTimes<double>>(C, A, Astar, B, Bstar,
                                                        dopts);
            core::add_update<PlusTimes<double>>(A, Astar, pool.get());
            am = reference_add<PlusTimes<double>>(am, ua);
            bm = reference_add<PlusTimes<double>>(bm, ub);
            test::expect_matches(
                C, reference_multiply<PlusTimes<double>>(am, bm));
        }
    });
}

TEST_P(DynSpgemmP, RingDeletionsViaNegativeUpdates) {
    // In a ring, deleting a_{ij} is the algebraic update a* = -a_{ij}.
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(300);
        const index_t n = 18;
        auto ta = random_triples(rng, n, n, 100);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        auto tb = random_triples(rng, n, n, 100);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);

        // Cancel one third of A's entries.
        std::vector<Triple<double>> negs;
        CoordMap am = as_map(ta);
        for (std::size_t x = 0; x < ta.size(); x += 3) {
            negs.push_back({ta[x].row, ta[x].col, -ta[x].value});
            am.erase({ta[x].row, ta[x].col});
        }
        auto Astar = build_update_matrix(grid, n, n, feed(negs));
        core::DistDcsr<double> Bstar(grid, n, n);
        dynamic_spgemm_algebraic<PlusTimes<double>>(C, A, Astar, B, Bstar, dopts);
        core::add_update<PlusTimes<double>>(A, Astar, pool.get());
        test::expect_matches(C,
                             reference_multiply<PlusTimes<double>>(am, as_map(tb)));
    });
}

TEST_P(DynSpgemmP, MinPlusDecreasingUpdatesAreAlgebraic) {
    // (min,+): inserting new entries or decreasing existing ones is algebraic
    // because add = min can only keep or lower values.
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(400);
        const index_t n = 16;
        auto ta = random_triples(rng, n, n, 80, 5.0, 9.0);
        auto tb = random_triples(rng, n, n, 80, 5.0, 9.0);
        sparse::combine_duplicates<MinPlus<double>>(ta);
        sparse::combine_duplicates<MinPlus<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<MinPlus<double>>(A, B);
        CoordMap am = as_map(ta);
        for (int batch = 0; batch < 2; ++batch) {
            auto upd = random_triples(rng, n, n, 15, 0.5, 4.0);  // small: wins min
            sparse::combine_duplicates<MinPlus<double>>(upd);
            auto Astar = build_update_matrix(grid, n, n, feed(upd));
            core::DistDcsr<double> Bstar(grid, n, n);
            dynamic_spgemm_algebraic<MinPlus<double>>(C, A, Astar, B, Bstar, dopts);
            core::add_update<MinPlus<double>>(A, Astar, pool.get());
            am = reference_add<MinPlus<double>>(am, upd);
            // MinPlus result entries equal the recomputation exactly (no
            // cancellation concerns), but C may hold extra structural
            // entries equal to older, larger path weights... it cannot:
            // min-merging only lowers. Compare exactly on values where
            // reference has entries.
            auto expect = reference_multiply<MinPlus<double>>(am, as_map(tb));
            auto got = as_map(C.gather_global());
            for (const auto& [coord, v] : expect) {
                auto it = got.find(coord);
                ASSERT_NE(it, got.end());
                EXPECT_NEAR(it->second, v, 1e-9);
            }
            // Superset direction: every stored entry has a reference value.
            for (const auto& [coord, v] : got)
                EXPECT_TRUE(expect.count(coord)) << coord.first << ","
                                                 << coord.second;
        }
    });
}

TEST_P(DynSpgemmP, PatternIsSupersetWithCorrectBloomBits) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(500);
        const index_t n = 22;
        auto ta = random_triples(rng, n, n, 90);
        auto tb = random_triples(rng, n, n, 90);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto upd = random_triples(rng, n, n, 20);
        sparse::combine_duplicates<PlusTimes<double>>(upd);
        auto Astar = build_update_matrix(grid, n, n, feed(upd));
        core::DistDcsr<double> Bstar(grid, n, n);

        auto Cstar = compute_pattern(A, Astar, B, Bstar, dopts);
        std::map<std::pair<index_t, index_t>, std::uint64_t> pat;
        for (const auto& t : Cstar.gather_global()) pat[{t.row, t.col}] = t.value;

        // Reference: C* = A* B (B' == B since Bstar empty).
        const auto am = as_map(upd);
        const auto bm = as_map(tb);
        for (const auto& [ca, va] : am)
            for (const auto& [cb, vb] : bm) {
                if (ca.second != cb.first) continue;
                auto it = pat.find({ca.first, cb.second});
                ASSERT_NE(it, pat.end()) << "pattern misses a changed cell";
                EXPECT_NE(it->second & sparse::bloom_bit(ca.second), 0u);
            }
        // Exactness of the structure (no Y term here): every pattern entry is
        // explained by some update row.
        auto cstar_ref = reference_multiply<PlusTimes<double>>(am, bm);
        for (const auto& [coord, bits] : pat)
            EXPECT_TRUE(cstar_ref.count(coord));
    });
}

TEST_P(DynSpgemmP, DynamicBeatsSummaOnCommunicationVolume) {
    // The paper's central claim, checked on the accounting layer: updating
    // C with a small A* moves far fewer bytes than a static SUMMA of A'B.
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        if (c.size() == 1) GTEST_SKIP();  // no communication either way
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(600);
        const index_t n = 64;
        auto ta = random_triples(rng, n, n, 2000);
        auto tb = random_triples(rng, n, n, 2000);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);

        auto upd = random_triples(rng, n, n, 16);
        sparse::combine_duplicates<PlusTimes<double>>(upd);
        auto Astar = build_update_matrix(grid, n, n, feed(upd));
        core::DistDcsr<double> Bstar(grid, n, n);

        c.barrier();
        if (c.rank() == 0) c.stats().reset();
        c.barrier();
        dynamic_spgemm_algebraic<PlusTimes<double>>(C, A, Astar, B, Bstar, dopts);
        c.barrier();
        const auto dyn = c.stats().snapshot().total_bytes();

        if (c.rank() == 0) c.stats().reset();
        c.barrier();
        auto C2 = summa_multiply<PlusTimes<double>>(A, B);
        c.barrier();
        const auto stat = c.stats().snapshot().total_bytes();
        if (c.rank() == 0) {
            EXPECT_LT(dyn, stat / 2)
                << "dynamic moved " << dyn << " bytes, SUMMA " << stat;
        }
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, DynSpgemmP,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
