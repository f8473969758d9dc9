// Graph algorithms: triangle counting (static + dynamically maintained)
// against combinatorial ground truth; k-hop (min,+) distances against a
// hop-bounded Bellman-Ford reference; dynamic maintenance equals recompute.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>

#include "common/grid_shapes.hpp"
#include "core/dist_test_utils.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace {

using namespace dsg;
using core::ProcessGrid;
using graph::DynamicMultiSourceProduct;
using graph::DynamicTriangleCounter;
using dsg::test::GridCase;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::Triple;

/// Combinatorial reference triangle count on an edge set.
std::size_t brute_force_triangles(const std::vector<Triple<double>>& edges,
                                  index_t n) {
    std::vector<std::vector<bool>> adj(static_cast<std::size_t>(n),
                                       std::vector<bool>(static_cast<std::size_t>(n)));
    for (const auto& e : edges)
        adj[static_cast<std::size_t>(e.row)][static_cast<std::size_t>(e.col)] =
            true;
    std::size_t count = 0;
    for (index_t u = 0; u < n; ++u)
        for (index_t v = static_cast<index_t>(u) + 1; v < n; ++v)
            for (index_t w = v + 1; w < n; ++w)
                if (adj[u][v] && adj[v][w] && adj[u][w]) ++count;
    return count;
}

class AlgoP : public ::testing::TestWithParam<int> {};

TEST_P(AlgoP, TriangleCountOnKnownGraphs) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        // K5: C(5,3) = 10 triangles.
        auto A = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, 5, 5, feed(graph::complete_graph(5)));
        EXPECT_DOUBLE_EQ(graph::triangle_count(A), 10.0);
        // C6 (cycle): no triangles.
        auto edges = graph::symmetrize(graph::cycle_graph(6));
        auto B = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, 6, 6, feed(edges));
        EXPECT_DOUBLE_EQ(graph::triangle_count(B), 0.0);
        // Star: no triangles.
        auto S = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, 8, 8, feed(graph::star_graph(8)));
        EXPECT_DOUBLE_EQ(graph::triangle_count(S), 0.0);
    });
}

TEST_P(AlgoP, TriangleCountMatchesBruteForceOnRandomGraph) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 24;
        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 150, 5));
        for (auto& e : edges) e.value = 1.0;
        auto sym = graph::simplify(graph::symmetrize(edges));
        auto A = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, n, n,
            c.rank() == 0 ? sym : std::vector<Triple<double>>{});
        EXPECT_DOUBLE_EQ(graph::triangle_count(A),
                         static_cast<double>(brute_force_triangles(sym, n)));
    });
}

/// Hop-bounded (min,+) reference distances.
std::map<std::pair<index_t, index_t>, double> reference_khop(
    const std::vector<Triple<double>>& edges, index_t n,
    const std::vector<index_t>& sources, int hops) {
    std::map<std::pair<index_t, index_t>, double> dist;
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < sources.size(); ++s) {
        std::vector<double> d(static_cast<std::size_t>(n), inf);
        std::vector<double> cur(static_cast<std::size_t>(n), inf);
        cur[static_cast<std::size_t>(sources[s])] = 0.0;
        for (int h = 0; h < hops; ++h) {
            std::vector<double> nxt(static_cast<std::size_t>(n), inf);
            for (const auto& e : edges) {
                const double via = cur[static_cast<std::size_t>(e.row)] + e.value;
                auto& slot = nxt[static_cast<std::size_t>(e.col)];
                if (via < slot) slot = via;
            }
            for (index_t v = 0; v < n; ++v) {
                d[static_cast<std::size_t>(v)] = std::min(
                    d[static_cast<std::size_t>(v)], nxt[static_cast<std::size_t>(v)]);
                cur[static_cast<std::size_t>(v)] =
                    std::min(cur[static_cast<std::size_t>(v)],
                             nxt[static_cast<std::size_t>(v)]);
            }
        }
        for (index_t v = 0; v < n; ++v)
            if (d[static_cast<std::size_t>(v)] < inf)
                dist[{static_cast<index_t>(s), v}] = d[static_cast<std::size_t>(v)];
    }
    return dist;
}

TEST_P(AlgoP, KhopDistancesMatchReference) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 18;
        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 60, 11));
        const std::vector<index_t> sources{0, 5, 17};
        auto A = core::build_dynamic_matrix<sparse::MinPlus<double>>(
            grid, n, n, c.rank() == 0 ? edges : std::vector<Triple<double>>{});
        auto S = graph::source_selector(grid, n, sources);
        for (int hops : {1, 2, 3}) {
            auto D = graph::khop_distances(A, S, hops);
            auto expect = reference_khop(edges, n, sources, hops);
            std::map<std::pair<index_t, index_t>, double> got;
            for (const auto& t : D.gather_global()) got[{t.row, t.col}] = t.value;
            ASSERT_EQ(got.size(), expect.size()) << "hops " << hops;
            for (const auto& [coord, v] : expect) {
                ASSERT_TRUE(got.count(coord));
                EXPECT_NEAR(got[coord], v, 1e-9);
            }
        }
    });
}

TEST_P(AlgoP, DynamicMultiSourceProductTracksDecreases) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 16;
        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 40, 13));
        const std::vector<index_t> sources{1, 8};
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        DynamicMultiSourceProduct msp(grid, n, sources);
        const std::size_t half = edges.size() / 2;
        std::vector<Triple<double>> current(edges.begin(), edges.begin() + half);
        msp.initialize(feed(current));

        std::vector<Triple<double>> batch(edges.begin() + half, edges.end());
        msp.apply_decreases(feed(batch));
        current.insert(current.end(), batch.begin(), batch.end());

        auto expect = reference_khop(current, n, sources, 1);
        std::map<std::pair<index_t, index_t>, double> got;
        for (const auto& t : msp.distances().gather_global())
            got[{t.row, t.col}] = t.value;
        ASSERT_EQ(got.size(), expect.size());
        for (const auto& [coord, v] : expect) {
            ASSERT_TRUE(got.count(coord));
            EXPECT_NEAR(got[coord], v, 1e-9);
        }
    });
}

TEST_P(AlgoP, DynamicContractionMatchesDirectComputation) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 30;
        const index_t clusters = 5;
        std::vector<index_t> assignment(static_cast<std::size_t>(n));
        for (index_t v = 0; v < n; ++v)
            assignment[static_cast<std::size_t>(v)] = v % clusters;

        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 120, 21));
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        graph::DynamicContraction contraction(grid, n, clusters, assignment);

        // Stream edges in three batches; after each, the contracted matrix
        // must equal the direct aggregation of all edges seen so far.
        std::map<std::pair<index_t, index_t>, double> expect;
        const std::size_t third = edges.size() / 3;
        for (int b = 0; b < 3; ++b) {
            const std::size_t lo = b * third;
            const std::size_t hi = b == 2 ? edges.size() : (b + 1) * third;
            std::vector<Triple<double>> batch(edges.begin() + lo,
                                              edges.begin() + hi);
            contraction.insert_edges(feed(batch));
            for (const auto& e : batch)
                expect[{assignment[static_cast<std::size_t>(e.row)],
                        assignment[static_cast<std::size_t>(e.col)]}] += e.value;
            auto got = contraction.contracted().gather_global();
            std::map<std::pair<index_t, index_t>, double> gm;
            for (const auto& t : got) gm[{t.row, t.col}] = t.value;
            for (const auto& [coord, v] : expect) {
                ASSERT_TRUE(gm.count(coord)) << "batch " << b;
                EXPECT_NEAR(gm[coord], v, 1e-9);
            }
            for (const auto& [coord, v] : gm) {
                if (!expect.count(coord)) {
                    EXPECT_NEAR(v, 0.0, 1e-9);
                }
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Worlds, AlgoP, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// DynamicTriangleCounter on every grid shape of the sweep (1x4 and larger
// rows put interior tree nodes, which merge signed partials, in front of
// the absorbed-row sink).
// ---------------------------------------------------------------------------

class TriangleG : public ::testing::TestWithParam<GridCase> {};

std::vector<Triple<double>> both_directions(
    const std::vector<Triple<double>>& es) {
    std::vector<Triple<double>> out;
    for (const auto& e : es) {
        out.push_back(e);
        out.push_back({e.col, e.row, e.value});
    }
    return out;
}

/// The per-batch checks: the maintained count, the rescanned count() and
/// the brute-force count of `undirected` agree exactly, and C equals
/// summa_multiply(A, A) entry for entry with no stored zero. Collective.
void expect_counter_exact(const DynamicTriangleCounter& counter,
                          const std::vector<Triple<double>>& undirected,
                          index_t n, const std::string& where) {
    const auto brute = static_cast<double>(
        brute_force_triangles(both_directions(undirected), n));
    EXPECT_EQ(counter.maintained_count(), brute) << where;
    EXPECT_EQ(counter.count(), brute) << where;
    EXPECT_EQ(counter.adjacency().global_nnz(), 2 * undirected.size())
        << where;
    const auto reference = core::summa_multiply<sparse::PlusTimes<double>>(
        counter.adjacency(), counter.adjacency());
    const auto got = test::as_map(counter.square().gather_global());
    const auto expect = test::as_map(reference.gather_global());
    std::size_t stored_zeros = 0;
    for (const auto& [coord, v] : got) stored_zeros += v == 0.0 ? 1 : 0;
    EXPECT_EQ(stored_zeros, 0u) << where << ": stored zeros in C";
    EXPECT_TRUE(got == expect) << where << ": C differs from A*A ("
                               << got.size() << " vs " << expect.size()
                               << " entries)";
}

TEST_P(TriangleG, DynamicTriangleCounterTracksInsertions) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        const index_t n = 20;
        auto all = graph::simplify(graph::erdos_renyi_edges(n, 120, 6));
        for (auto& e : all) e.value = 1.0;
        auto sym = graph::simplify(graph::symmetrize(all));
        // Split into an initial half and three batches of undirected edges.
        std::vector<Triple<double>> undirected;
        for (const auto& e : sym)
            if (e.row < e.col) undirected.push_back(e);
        const std::size_t half = undirected.size() / 2;
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };

        DynamicTriangleCounter counter(grid, n, pool.get());
        std::vector<Triple<double>> current(undirected.begin(),
                                            undirected.begin() + half);
        counter.initialize(feed(both_directions(current)));
        expect_counter_exact(counter, current, n, "initial");

        const std::size_t rest = undirected.size() - half;
        for (int batch = 0; batch < 3; ++batch) {
            const std::size_t b = half + batch * rest / 3;
            const std::size_t e = half + (batch + 1) * rest / 3;
            std::vector<Triple<double>> newly(undirected.begin() + b,
                                              undirected.begin() + e);
            counter.insert_edges(feed(both_directions(newly)));
            current.insert(current.end(), newly.begin(), newly.end());
            expect_counter_exact(counter, current, n,
                                 "batch " + std::to_string(batch));
        }
    });
}

TEST_P(TriangleG, DynamicTriangleCounterTracksDeletions) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        const index_t n = 18;
        auto all = graph::simplify(graph::erdos_renyi_edges(n, 90, 31));
        for (auto& e : all) e.value = 1.0;
        auto sym = graph::simplify(graph::symmetrize(all));
        std::vector<Triple<double>> undirected;
        for (const auto& e : sym)
            if (e.row < e.col) undirected.push_back(e);
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        DynamicTriangleCounter counter(grid, n, pool.get());
        counter.initialize(feed(both_directions(undirected)));
        expect_counter_exact(counter, undirected, n, "initial");

        // Remove every fourth edge in two batches; count must track exactly.
        std::vector<Triple<double>> doomed;
        std::vector<Triple<double>> kept;
        for (std::size_t x = 0; x < undirected.size(); ++x)
            (x % 4 == 0 ? doomed : kept).push_back(undirected[x]);
        const std::size_t half = doomed.size() / 2;
        std::vector<Triple<double>> first(doomed.begin(), doomed.begin() + half);
        std::vector<Triple<double>> second(doomed.begin() + half, doomed.end());

        counter.remove_edges(feed(both_directions(first)));
        std::vector<Triple<double>> current = kept;
        current.insert(current.end(), second.begin(), second.end());
        expect_counter_exact(counter, current, n, "first removal");

        counter.remove_edges(feed(both_directions(second)));
        expect_counter_exact(counter, kept, n, "second removal");
    });
}

// Batches that insert (+1) and remove (-1) at once. Two of them are built to
// make C cancel: removing every edge of one vertex drives its C_ii (and the
// C entries of its two-paths) to zero, and swapping the middle vertex of a
// two-path (insert 17-19, remove 18-19, with 16-17 and 16-18 present) has
// pass 1 add +1 and -1 to C(16, 19) from different inner indices.
TEST_P(TriangleG, DynamicTriangleCounterTracksMixedBatches) {
    const GridCase gc = GetParam();
    run_world(gc.p(), [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        auto pool = dsg::test::make_pool(gc);
        const index_t n = 24;
        std::set<std::pair<index_t, index_t>> edges;  // undirected, row < col
        for (const auto& e : graph::erdos_renyi_edges(16, 70, 47))
            if (e.row != e.col)
                edges.insert({std::min(e.row, e.col), std::max(e.row, e.col)});
        edges.insert({16, 17});
        edges.insert({16, 18});
        edges.insert({18, 19});
        auto undirected = [&] {
            std::vector<Triple<double>> out;
            for (const auto& [u, v] : edges) out.push_back({u, v, 1.0});
            return out;
        };

        DynamicTriangleCounter counter(grid, n, pool.get());
        counter.initialize(
            c.rank() == 0 ? both_directions(undirected())
                          : std::vector<Triple<double>>{});
        expect_counter_exact(counter, undirected(), n, "initial");

        std::mt19937_64 rng(53);
        auto apply = [&](const std::vector<std::pair<index_t, index_t>>& ins,
                         const std::vector<std::pair<index_t, index_t>>& rem,
                         const std::string& where) {
            std::vector<Triple<double>> update;
            for (const auto& [u, v] : ins) {
                ASSERT_TRUE(edges.insert({u, v}).second) << where;
                update.push_back({u, v, 1.0});
            }
            for (const auto& [u, v] : rem) {
                ASSERT_EQ(edges.erase({u, v}), 1u) << where;
                update.push_back({u, v, -1.0});
            }
            counter.update_edges(c.rank() == 0 ? both_directions(update)
                                               : std::vector<Triple<double>>{});
            expect_counter_exact(counter, undirected(), n, where);
        };
        // A random mix over vertices [0, 16): every third live edge goes,
        // and as many absent pairs come in.
        auto random_mix = [&](const std::string& where) {
            std::vector<std::pair<index_t, index_t>> ins, rem;
            std::size_t x = 0;
            for (const auto& e : edges)
                if (e.second < 16 && x++ % 3 == 0) rem.push_back(e);
            std::set<std::pair<index_t, index_t>> chosen;
            while (ins.size() < rem.size()) {
                const auto u = static_cast<index_t>(rng() % 16);
                const auto v = static_cast<index_t>(rng() % 16);
                const std::pair<index_t, index_t> e{std::min(u, v),
                                                    std::max(u, v)};
                if (u != v && !edges.count(e) && chosen.insert(e).second)
                    ins.push_back(e);
            }
            apply(ins, rem, where);
        };

        random_mix("random mix 1");
        {
            // Isolate vertex 3; swap the two-path 16-18-19 for 16-17-19.
            std::vector<std::pair<index_t, index_t>> rem{{18, 19}};
            for (const auto& e : edges)
                if (e.first == 3 || e.second == 3) rem.push_back(e);
            ASSERT_GT(rem.size(), 2u);
            std::vector<std::pair<index_t, index_t>> ins{{17, 19}};
            if (!edges.count({1, 2})) ins.push_back({1, 2});
            apply(ins, rem, "isolate 3, swap two-path");
        }
        random_mix("random mix 2");
        {
            // Reconnect vertex 3; drop the gadget's two-paths.
            std::vector<std::pair<index_t, index_t>> ins{{18, 19}};
            for (index_t w = 4; w < 16 && ins.size() < 4; ++w)
                if (!edges.count({3, w})) ins.push_back({3, w});
            apply(ins, {{16, 17}, {16, 18}, {17, 19}},
                  "reconnect 3, drop the gadget's two-paths");
        }
        apply({}, {}, "empty batch");
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, TriangleG,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
