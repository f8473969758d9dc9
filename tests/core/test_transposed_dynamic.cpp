// The transposed algebraic dynamic SpGEMM (Section V-C): maintaining
// C = A^T B under updates of either operand matches a from-scratch
// recomputation, across grid sizes; plus the chained-contraction identity.
#include <gtest/gtest.h>

#include <random>
#include <span>

#include "common/grid_shapes.hpp"
#include "core/dynamic_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "dist_test_utils.hpp"

namespace {

using namespace dsg;
using core::build_dynamic_matrix;
using core::build_update_matrix;
using core::DistDcsr;
using core::DistDynamicMatrix;
using core::dynamic_spgemm_algebraic;
using core::dynamic_spgemm_algebraic_transA;
using core::ProcessGrid;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::PlusTimes;
using sparse::Triple;
using test::as_map;
using test::CoordMap;
using test::random_triples;
using test::reference_add;
using dsg::test::GridCase;

/// Reference C = A^T B from coordinate maps.
CoordMap reference_transposed(const CoordMap& a, const CoordMap& b) {
    CoordMap out;
    for (const auto& [ca, va] : a)
        for (const auto& [cb, vb] : b) {
            if (ca.first != cb.first) continue;  // shared inner row
            out[{ca.second, cb.second}] += va * vb;
        }
    return out;
}

class TransAP : public ::testing::TestWithParam<GridCase> {};

TEST_P(TransAP, UpdatesOfLeftOperandMatchRecompute) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(700);
        const index_t inner = 24, n = 20, m = 22;
        auto ta = random_triples(rng, inner, n, 120);
        auto tb = random_triples(rng, inner, m, 120);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, inner, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, inner, m, feed(tb));
        // Initial C = A^T B via untransposed machinery on explicit A^T.
        DistDynamicMatrix<double> C(grid, n, m);
        {
            DistDcsr<double> a_empty(grid, inner, n);
            auto Astar_full = build_update_matrix(grid, inner, n, feed(ta));
            // C += A^T B with A "empty" and A* = all of A (valid algebraic
            // path for building the initial product through the transA code).
            DistDynamicMatrix<double> A0(grid, inner, n);
            DistDcsr<double> b_empty(grid, inner, m);
            dynamic_spgemm_algebraic_transA<PlusTimes<double>>(
                C, A0, Astar_full, B, b_empty, dopts);
        }
        CoordMap am = as_map(ta);
        const CoordMap bm = as_map(tb);
        test::expect_matches(C, reference_transposed(am, bm));

        for (int batch = 0; batch < 3; ++batch) {
            auto upd = random_triples(rng, inner, n, 18, -3.0, 3.0);
            sparse::combine_duplicates<PlusTimes<double>>(upd);
            auto Astar = build_update_matrix(grid, inner, n, feed(upd));
            DistDcsr<double> Bstar(grid, inner, m);
            dynamic_spgemm_algebraic_transA<PlusTimes<double>>(C, A, Astar, B,
                                                               Bstar, dopts);
            core::add_update<PlusTimes<double>>(A, Astar, pool.get());
            am = reference_add<PlusTimes<double>>(am, upd);
            test::expect_matches(C, reference_transposed(am, bm));
        }
    });
}

TEST_P(TransAP, UpdatesOfRightOperandMatchRecompute) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(800);
        const index_t inner = 20, n = 16, m = 18;
        auto ta = random_triples(rng, inner, n, 100);
        auto tb = random_triples(rng, inner, m, 100);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, inner, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, inner, m, feed(tb));
        CoordMap am = as_map(ta);
        CoordMap bm = as_map(tb);
        // Initial product through the transA path (A* = A, as above).
        DistDynamicMatrix<double> C(grid, n, m);
        {
            DistDynamicMatrix<double> A0(grid, inner, n);
            auto Astar_full = build_update_matrix(grid, inner, n, feed(ta));
            DistDcsr<double> b_empty(grid, inner, m);
            dynamic_spgemm_algebraic_transA<PlusTimes<double>>(
                C, A0, Astar_full, B, b_empty, dopts);
        }

        for (int batch = 0; batch < 3; ++batch) {
            auto upd = random_triples(rng, inner, m, 16, -3.0, 3.0);
            sparse::combine_duplicates<PlusTimes<double>>(upd);
            auto Bstar = build_update_matrix(grid, inner, m, feed(upd));
            DistDcsr<double> Astar(grid, inner, n);
            // C += A^T B* (Y-term only); B' not needed by the X-term here but
            // must reflect the post-update state per the algorithm contract.
            core::add_update<PlusTimes<double>>(B, Bstar, pool.get());
            dynamic_spgemm_algebraic_transA<PlusTimes<double>>(C, A, Astar, B,
                                                               Bstar, dopts);
            bm = reference_add<PlusTimes<double>>(bm, upd);
            test::expect_matches(C, reference_transposed(am, bm));
        }
    });
}

TEST_P(TransAP, SimultaneousUpdatesOfBothOperands) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(900);
        const index_t inner = 18, n = 18, m = 18;
        auto ta = random_triples(rng, inner, n, 90);
        auto tb = random_triples(rng, inner, m, 90);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, inner, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, inner, m, feed(tb));
        DistDynamicMatrix<double> C(grid, n, m);
        {
            DistDynamicMatrix<double> A0(grid, inner, n);
            auto Astar_full = build_update_matrix(grid, inner, n, feed(ta));
            DistDcsr<double> b_empty(grid, inner, m);
            dynamic_spgemm_algebraic_transA<PlusTimes<double>>(
                C, A0, Astar_full, B, b_empty, dopts);
        }
        CoordMap am = as_map(ta), bm = as_map(tb);
        for (int batch = 0; batch < 2; ++batch) {
            auto ua = random_triples(rng, inner, n, 12, -2.0, 2.0);
            auto ub = random_triples(rng, inner, m, 12, -2.0, 2.0);
            sparse::combine_duplicates<PlusTimes<double>>(ua);
            sparse::combine_duplicates<PlusTimes<double>>(ub);
            auto Astar = build_update_matrix(grid, inner, n, feed(ua));
            auto Bstar = build_update_matrix(grid, inner, m, feed(ub));
            // C* = A*^T B' + A^T B*: B updated first, A afterwards.
            core::add_update<PlusTimes<double>>(B, Bstar, pool.get());
            dynamic_spgemm_algebraic_transA<PlusTimes<double>>(C, A, Astar, B,
                                                               Bstar, dopts);
            core::add_update<PlusTimes<double>>(A, Astar, pool.get());
            am = reference_add<PlusTimes<double>>(am, ua);
            bm = reference_add<PlusTimes<double>>(bm, ub);
            test::expect_matches(C, reference_transposed(am, bm));
        }
    });
}

TEST_P(TransAP, CstarOutCollectsExactlyTheDelta) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(950);
        const index_t n = 20;
        auto ta = random_triples(rng, n, n, 80);
        auto tb = random_triples(rng, n, n, 80);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto C = core::summa_multiply<PlusTimes<double>>(A, B);
        auto upd = random_triples(rng, n, n, 15);
        sparse::combine_duplicates<PlusTimes<double>>(upd);
        auto Astar = build_update_matrix(grid, n, n, feed(upd));
        DistDcsr<double> Bstar(grid, n, n);
        DistDynamicMatrix<double> cstar(grid, n, n);
        core::dynamic_spgemm_algebraic<PlusTimes<double>>(
            C, A, Astar, B, Bstar, dopts,
            [&](index_t r, std::span<const index_t> cols,
                std::span<const double> vals) {
                cstar.local().add_row(r, cols, vals, PlusTimes<double>::add);
            });
        // cstar == A* B exactly.
        auto expect = test::reference_multiply<PlusTimes<double>>(
            as_map(upd), as_map(tb));
        test::expect_matches(cstar, expect);
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, TransAP,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

/// Reference C = A B^T from coordinate maps.
CoordMap reference_transposed_b(const CoordMap& a, const CoordMap& b) {
    CoordMap out;
    for (const auto& [ca, va] : a)
        for (const auto& [cb, vb] : b) {
            if (ca.second != cb.second) continue;  // shared inner column
            out[{ca.first, cb.first}] += va * vb;
        }
    return out;
}

class TransBP : public ::testing::TestWithParam<GridCase> {};

TEST_P(TransBP, UpdatesOfBothOperandsMatchRecompute) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(1000);
        const index_t n = 18, m = 20, inner = 22;
        auto ta = random_triples(rng, n, inner, 100);
        auto tb = random_triples(rng, m, inner, 100);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, inner, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, m, inner, feed(tb));
        CoordMap am = as_map(ta), bm = as_map(tb);

        // Initial C = A B^T through the transB path: A0 empty, A* = A.
        DistDynamicMatrix<double> C(grid, n, m);
        {
            DistDynamicMatrix<double> A0(grid, n, inner);
            auto Astar_full = build_update_matrix(grid, n, inner, feed(ta));
            DistDcsr<double> b_empty(grid, m, inner);
            core::dynamic_spgemm_algebraic_transB<PlusTimes<double>>(
                C, A0, Astar_full, B, b_empty, dopts);
        }
        test::expect_matches(C, reference_transposed_b(am, bm));

        for (int batch = 0; batch < 3; ++batch) {
            auto ua = random_triples(rng, n, inner, 12, -2.0, 2.0);
            auto ub = random_triples(rng, m, inner, 12, -2.0, 2.0);
            sparse::combine_duplicates<PlusTimes<double>>(ua);
            sparse::combine_duplicates<PlusTimes<double>>(ub);
            auto Astar = build_update_matrix(grid, n, inner, feed(ua));
            auto Bstar = build_update_matrix(grid, m, inner, feed(ub));
            // C* = A* B'^T + A B*^T: update B first, A afterwards.
            core::add_update<PlusTimes<double>>(B, Bstar, pool.get());
            core::dynamic_spgemm_algebraic_transB<PlusTimes<double>>(
                C, A, Astar, B, Bstar, dopts);
            core::add_update<PlusTimes<double>>(A, Astar, pool.get());
            am = reference_add<PlusTimes<double>>(am, ua);
            bm = reference_add<PlusTimes<double>>(bm, ub);
            test::expect_matches(C, reference_transposed_b(am, bm));
        }
    });
}

TEST_P(TransBP, RightOnlyUpdateIsTheOuterProductCase) {
    // C = A B^T with B gaining rows is the similarity-join pattern:
    // new columns of B^T join against all of A.
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DynamicSpgemmOptions dopts;
        dopts.pool = pool.get();
        std::mt19937_64 rng(1100);
        const index_t n = 16, m = 16, inner = 16;
        auto ta = random_triples(rng, n, inner, 80);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, inner, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, m, inner,
                                                         std::vector<Triple<double>>{});
        DistDynamicMatrix<double> C(grid, n, m);
        CoordMap am = as_map(ta);
        CoordMap bm;
        for (int batch = 0; batch < 3; ++batch) {
            auto ub = random_triples(rng, m, inner, 14);
            sparse::combine_duplicates<PlusTimes<double>>(ub);
            auto Bstar = build_update_matrix(grid, m, inner, feed(ub));
            DistDcsr<double> Astar(grid, n, inner);
            core::add_update<PlusTimes<double>>(B, Bstar, pool.get());
            core::dynamic_spgemm_algebraic_transB<PlusTimes<double>>(
                C, A, Astar, B, Bstar, dopts);
            bm = reference_add<PlusTimes<double>>(bm, ub);
            test::expect_matches(C, reference_transposed_b(am, bm));
        }
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, TransBP,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
