// The grid-shape test matrix: one parameterized sweep shared by the core,
// graph, stream, persist, and serve suites.
//
// Each GridCase names a process-grid shape (square AND rectangular) plus how
// each rank runs its local kernels: inline on the rank thread, or on an
// intra-rank ThreadPool. Suites adopt the sweep with
//
//   class MySuiteG : public ::testing::TestWithParam<dsg::test::GridCase> {};
//   INSTANTIATE_TEST_SUITE_P(GridShapes, MySuiteG,
//                            ::testing::ValuesIn(dsg::test::grid_shape_cases()),
//                            dsg::test::grid_case_name);
//
// and construct the grid and the pool inside run_world with
// make_grid(comm, GetParam()) and make_pool(GetParam()).
// The default sweep covers p in {1, 2, 3, 4, 6} — shapes 1x1, 1x2, 1x3,
// 2x2, 1x4, 2x3 (1x4 is the one default communicator with an interior
// binomial-tree node, so posted reductions receive, merge and forward) —
// both inline and pooled; configuring with -DDSG_GRID_SHAPES=extended adds
// larger shapes (3x3, 2x4, 1x6, 3x4) for the dedicated CI job.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/process_grid.hpp"
#include "par/comm.hpp"
#include "par/thread_pool.hpp"

namespace dsg::test {

/// Where a case runs each rank's local kernels (multiplications, update
/// application, query batches).
enum class LocalExec : std::int32_t {
    Inline,  ///< on the rank thread (no pool); case tag "sync"
    Pooled,  ///< on a two-thread ThreadPool, whose worker runs chunks
             ///< beside the rank thread; case tag "async"
};

struct GridCase {
    int rows = 1;
    int cols = 1;
    LocalExec exec = LocalExec::Inline;

    [[nodiscard]] int p() const { return rows * cols; }
};

// The "sync"/"async" tags are the names the sweep's cases have always
// carried, so a case keeps its name in every test report over time.
inline std::ostream& operator<<(std::ostream& os, const GridCase& c) {
    return os << c.rows << "x" << c.cols
              << (c.exec == LocalExec::Pooled ? " async" : " sync");
}

/// gtest parameter-name generator: "2x3_async" etc.
inline std::string grid_case_name(
    const ::testing::TestParamInfo<GridCase>& info) {
    const GridCase& c = info.param;
    return std::to_string(c.rows) + "x" + std::to_string(c.cols) +
           (c.exec == LocalExec::Pooled ? "_async" : "_sync");
}

/// The shapes of the sweep.
inline std::vector<std::pair<int, int>> grid_shapes() {
    return {
        {1, 1}, {1, 2}, {1, 3}, {2, 2}, {1, 4}, {2, 3},
#ifdef DSG_GRID_SHAPES_EXTENDED
        {3, 3}, {2, 4}, {1, 6}, {3, 4},
#endif
    };
}

/// The full sweep: every shape, inline and pooled.
inline std::vector<GridCase> grid_shape_cases() {
    std::vector<GridCase> out;
    for (const auto& [r, c] : grid_shapes())
        for (const LocalExec e : {LocalExec::Inline, LocalExec::Pooled})
            out.push_back({r, c, e});
    return out;
}

/// One inline case per shape (for suites whose code under test takes no
/// pool, so a pooled case would repeat the inline one).
inline std::vector<GridCase> grid_shape_cases_sync_only() {
    std::vector<GridCase> out;
    for (const auto& [r, c] : grid_shapes())
        out.push_back({r, c, LocalExec::Inline});
    return out;
}

/// The pool a case's kernels run on: none for Inline, two threads for
/// Pooled. Make it per rank, inside run_world.
inline std::unique_ptr<par::ThreadPool> make_pool(const GridCase& c) {
    if (c.exec == LocalExec::Inline) return nullptr;
    return std::make_unique<par::ThreadPool>(2);
}

/// Constructs the case's grid (explicit shape override, so rectangular
/// worlds like p = 6 get the exact rows x cols the case names, not the
/// auto-factored default).
inline core::ProcessGrid make_grid(par::Comm& comm, const GridCase& c) {
    return core::ProcessGrid(comm, c.rows, c.cols);
}

}  // namespace dsg::test
