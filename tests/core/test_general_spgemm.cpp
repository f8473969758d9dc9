// Algorithm 2 (general updates): after arbitrary update batches — deletions,
// value increases under (min,+), overwrites — the maintained C equals a full
// recomputation, and the maintained Bloom filter F stays a valid superset
// filter. Also checks the Bloom column filter's volume reduction.
#include <gtest/gtest.h>

#include <random>

#include "common/grid_shapes.hpp"
#include "core/general_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "dist_test_utils.hpp"

namespace {

using namespace dsg;
using core::build_dynamic_matrix;
using core::build_update_matrix;
using core::compute_pattern;
using core::DistDcsr;
using core::DistDynamicMatrix;
using core::general_dynamic_spgemm;
using core::GeneralSpgemmOptions;
using core::ProcessGrid;
using core::SummaOptions;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::MinPlus;
using sparse::PlusTimes;
using sparse::Triple;
using test::as_map;
using test::CoordMap;
using test::random_triples;
using test::reference_multiply;
using dsg::test::GridCase;

/// One general-update round: updates A via MERGE (new values) and MASK
/// (deletions), maintains C and F with Algorithm 2, checks against the
/// reference model. B stays static (as in the paper's Fig. 10 experiment),
/// but the machinery exercises the full pattern computation.
template <typename SR>
void run_general_rounds(Comm& c, const GridCase& gc, std::uint64_t seed,
                        int rounds, bool use_bloom) {
    ProcessGrid grid = dsg::test::make_grid(c, gc);
    auto pool = dsg::test::make_pool(gc);
    core::DynamicSpgemmOptions dopts;
    dopts.pool = pool.get();
    std::mt19937_64 rng(seed);
    const index_t n = 20;
    auto ta = random_triples(rng, n, n, 110, 1.0, 9.0);
    auto tb = random_triples(rng, n, n, 110, 1.0, 9.0);
    sparse::combine_duplicates<SR>(ta);
    sparse::combine_duplicates<SR>(tb);
    auto feed = [&](const std::vector<Triple<double>>& ts) {
        return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
    };
    auto A = build_dynamic_matrix<SR>(grid, n, n, feed(ta));
    auto B = build_dynamic_matrix<SR>(grid, n, n, feed(tb));
    DistDynamicMatrix<double> C(grid, n, n);
    DistDynamicMatrix<std::uint64_t> F(grid, n, n);
    SummaOptions sopts;
    sopts.bloom_out = &F;
    core::summa<SR>(C, A, B, sopts);

    CoordMap am = as_map(ta);
    const CoordMap bm = as_map(tb);
    for (int round = 0; round < rounds; ++round) {
        // General updates on A: overwrite some entries with *larger* values
        // (invalid as (min,+) addition), insert some, delete some.
        std::vector<Triple<double>> merges =
            random_triples(rng, n, n, 10, 20.0, 40.0);
        sparse::combine_duplicates<SR>(merges);
        std::vector<Triple<double>> deletes;
        for (const auto& [coord, v] : am) {
            if (rng() % 7 == 0) deletes.push_back({coord.first, coord.second, v});
            if (deletes.size() >= 8) break;
        }
        // A* structure = changed coordinates (merged + deleted).
        std::vector<Triple<double>> changed = merges;
        changed.insert(changed.end(), deletes.begin(), deletes.end());

        auto Astar = build_update_matrix(grid, n, n, feed(changed));
        DistDcsr<double> Bstar(grid, n, n);

        // Pattern first (uses pre-update A), then apply the updates to A.
        auto Cstar = compute_pattern(A, Astar, B, Bstar, dopts);
        auto Umerge = build_update_matrix(grid, n, n, feed(merges));
        auto Udel = build_update_matrix(grid, n, n, feed(deletes));
        core::merge_update(A, Umerge, pool.get());
        core::mask_delete(A, Udel, pool.get());
        for (const auto& t : merges) am[{t.row, t.col}] = t.value;
        for (const auto& t : deletes) am.erase({t.row, t.col});

        GeneralSpgemmOptions gopts;
        gopts.use_bloom_filter = use_bloom;
        gopts.pool = pool.get();
        auto stats = general_dynamic_spgemm<SR>(C, F, A, B, Cstar, gopts);
        EXPECT_LE(stats.ar_nnz_global, stats.aprime_nnz_global);

        // C must now equal the from-scratch product exactly (min-plus: no
        // cancellation; structure must match because deletions propagate).
        test::expect_matches_exactly(C, reference_multiply<SR>(am, bm));

        // F invariant: every contributing term's bit is present.
        std::map<std::pair<index_t, index_t>, std::uint64_t> fmap;
        for (const auto& t : F.gather_global()) fmap[{t.row, t.col}] = t.value;
        for (const auto& [ca, va] : am)
            for (const auto& [cb, vb] : bm) {
                if (ca.second != cb.first) continue;
                auto it = fmap.find({ca.first, cb.second});
                ASSERT_NE(it, fmap.end());
                EXPECT_NE(it->second & sparse::bloom_bit(ca.second), 0u);
            }
    }
}

class GeneralP : public ::testing::TestWithParam<GridCase> {};

TEST_P(GeneralP, MinPlusGeneralUpdatesMatchRecompute) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        run_general_rounds<MinPlus<double>>(c, gc, 900, 3, true);
    });
}

TEST_P(GeneralP, MinPlusWithoutBloomColumnFilter) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        run_general_rounds<MinPlus<double>>(c, gc, 901, 2, false);
    });
}

TEST_P(GeneralP, PlusTimesGeneralUpdatesMatchRecompute) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        run_general_rounds<PlusTimes<double>>(c, gc, 902, 2, true);
    });
}

TEST_P(GeneralP, DeleteEverythingEmptiesTheProduct) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        GeneralSpgemmOptions gopts;
        gopts.pool = pool.get();
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(903);
        const index_t n = 12;
        auto ta = random_triples(rng, n, n, 40);
        sparse::combine_duplicates<MinPlus<double>>(ta);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(ta));
        DistDynamicMatrix<double> C(grid, n, n);
        DistDynamicMatrix<std::uint64_t> F(grid, n, n);
        SummaOptions sopts;
        sopts.bloom_out = &F;
        core::summa<MinPlus<double>>(C, A, B, sopts);

        auto Astar = build_update_matrix(grid, n, n, feed(ta));
        DistDcsr<double> Bstar(grid, n, n);
        auto Cstar = compute_pattern(A, Astar, B, Bstar, dopts);
        core::mask_delete(A, Astar, pool.get());
        EXPECT_EQ(A.global_nnz(), 0u);
        general_dynamic_spgemm<MinPlus<double>>(C, F, A, B, Cstar, gopts);
        EXPECT_EQ(C.global_nnz(), 0u);
        EXPECT_EQ(F.global_nnz(), 0u);
    });
}

TEST_P(GeneralP, BloomFilterNeverLosesContributions) {
    // With and without the column filter the result is identical; the filter
    // only reduces nnz(A^R).
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        GeneralSpgemmOptions gopts;
        gopts.pool = pool.get();
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(904);
        const index_t n = 18;
        auto ta = random_triples(rng, n, n, 90);
        auto tb = random_triples(rng, n, n, 90);
        sparse::combine_duplicates<MinPlus<double>>(ta);
        sparse::combine_duplicates<MinPlus<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };

        auto run_one = [&](bool use_bloom) {
            auto A = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(ta));
            auto B = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(tb));
            DistDynamicMatrix<double> C(grid, n, n);
            DistDynamicMatrix<std::uint64_t> F(grid, n, n);
            SummaOptions sopts;
            sopts.bloom_out = &F;
            core::summa<MinPlus<double>>(C, A, B, sopts);
            std::vector<Triple<double>> overwrite{{ta[0].row, ta[0].col, 50.0},
                                                  {ta[1].row, ta[1].col, 60.0}};
            auto Astar = build_update_matrix(grid, n, n, feed(overwrite));
            DistDcsr<double> Bstar(grid, n, n);
            auto Cstar = compute_pattern(A, Astar, B, Bstar, dopts);
            auto U = build_update_matrix(grid, n, n, feed(overwrite));
            core::merge_update(A, U, pool.get());
            GeneralSpgemmOptions bopts = gopts;
            bopts.use_bloom_filter = use_bloom;
            auto st = general_dynamic_spgemm<MinPlus<double>>(C, F, A, B, Cstar,
                                                              bopts);
            return std::pair(as_map(C.gather_global()), st.ar_nnz_global);
        };
        auto [with_bloom, ar_with] = run_one(true);
        auto [without_bloom, ar_without] = run_one(false);
        EXPECT_EQ(with_bloom, without_bloom);
        EXPECT_LE(ar_with, ar_without);
    });
}

TEST_P(GeneralP, UpdatesOfRightOperandMatchRecompute) {
    // Exercises the A B* term of the pattern and the recomputation with a
    // changed B' — the flow the Fig. 10 experiment does not touch.
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        GeneralSpgemmOptions gopts;
        gopts.pool = pool.get();
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(905);
        const index_t n = 18;
        auto ta = random_triples(rng, n, n, 90);
        auto tb = random_triples(rng, n, n, 90);
        sparse::combine_duplicates<MinPlus<double>>(ta);
        sparse::combine_duplicates<MinPlus<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(tb));
        DistDynamicMatrix<double> C(grid, n, n);
        DistDynamicMatrix<std::uint64_t> F(grid, n, n);
        SummaOptions sopts;
        sopts.bloom_out = &F;
        core::summa<MinPlus<double>>(C, A, B, sopts);

        CoordMap bm = as_map(tb);
        for (int round = 0; round < 2; ++round) {
            // General updates on B: increase some weights, delete some.
            std::vector<Triple<double>> bumps =
                random_triples(rng, n, n, 8, 30.0, 60.0);
            sparse::combine_duplicates<MinPlus<double>>(bumps);
            std::vector<Triple<double>> deletes;
            for (const auto& [coord, v] : bm) {
                if (rng() % 8 == 0)
                    deletes.push_back({coord.first, coord.second, v});
                if (deletes.size() >= 6) break;
            }
            std::vector<Triple<double>> changed = bumps;
            changed.insert(changed.end(), deletes.begin(), deletes.end());
            auto Bstar = build_update_matrix(grid, n, n, feed(changed));
            DistDcsr<double> Astar(grid, n, n);
            // Pattern uses the pre-update A (trivially: A unchanged) and the
            // *post-update* B' per Eq. (1) — so apply B's updates first.
            core::merge_update(B, build_update_matrix(grid, n, n, feed(bumps)),
                               pool.get());
            core::mask_delete(B, build_update_matrix(grid, n, n, feed(deletes)),
                              pool.get());
            auto Cstar = compute_pattern(A, Astar, B, Bstar);
            for (const auto& t : bumps) bm[{t.row, t.col}] = t.value;
            for (const auto& t : deletes) bm.erase({t.row, t.col});

            general_dynamic_spgemm<MinPlus<double>>(C, F, A, B, Cstar);
            test::expect_matches_exactly(
                C, reference_multiply<MinPlus<double>>(as_map(ta), bm));
        }
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, GeneralP,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
