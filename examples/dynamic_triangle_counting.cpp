// Dynamic triangle counting on a streaming R-MAT graph.
//
// Maintains A and C = A*A under edge-insertion batches with the algebraic
// dynamic SpGEMM; each batch also updates the triangle count from its delta,
// so reading it is one scalar all-reduce. Compares the running time of the
// dynamic maintenance against recomputing the masked product from scratch
// (the paper's data-analytics motivation: don't recompute what barely
// changed).
//
// Run: ./build/examples/example_dynamic_triangle_counting
#include <chrono>
#include <cstdio>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "par/comm.hpp"

using namespace dsg;
using Clock = std::chrono::steady_clock;

int main() {
    constexpr int kRanks = 4;
    constexpr int kScale = 10;  // 1024 vertices
    constexpr std::size_t kEdges = 6000;
    constexpr int kBatches = 4;

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const sparse::index_t n = sparse::index_t{1} << kScale;

        // Rank 0 generates the stream; edges are undirected and weight 1.
        auto raw = graph::simplify(graph::rmat_edges(kScale, kEdges, 1234));
        for (auto& e : raw) e.value = 1.0;
        std::vector<sparse::Triple<double>> undirected;
        for (const auto& e : raw)
            if (e.row < e.col) undirected.push_back(e);
        auto both_dirs = [](const std::vector<sparse::Triple<double>>& es) {
            std::vector<sparse::Triple<double>> out;
            for (const auto& e : es) {
                out.push_back(e);
                out.push_back({e.col, e.row, e.value});
            }
            return out;
        };
        auto feed = [&](std::vector<sparse::Triple<double>> ts) {
            return comm.rank() == 0 ? ts : std::vector<sparse::Triple<double>>{};
        };

        const std::size_t half = undirected.size() / 2;
        graph::DynamicTriangleCounter counter(grid, n);
        counter.initialize(feed(both_dirs(
            {undirected.begin(), undirected.begin() + half})));
        const double initial_tri = counter.maintained_count();  // collective
        if (comm.rank() == 0)
            std::printf("initial graph: %zu undirected edges, %.0f triangles\n",
                        half, initial_tri);

        const std::size_t rest = undirected.size() - half;
        for (int b = 0; b < kBatches; ++b) {
            const std::size_t lo = half + b * rest / kBatches;
            const std::size_t hi = half + (b + 1) * rest / kBatches;
            std::vector<sparse::Triple<double>> batch(
                undirected.begin() + lo, undirected.begin() + hi);

            comm.barrier();
            const auto t0 = Clock::now();
            counter.insert_edges(feed(both_dirs(batch)));
            const double tri = counter.maintained_count();
            comm.barrier();
            const double dyn_ms =
                std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();

            // Static comparison: recount from the adjacency matrix alone
            // (masked SUMMA recomputation of the whole product).
            comm.barrier();
            const auto t1 = Clock::now();
            const double tri_static = graph::triangle_count(counter.adjacency());
            comm.barrier();
            const double stat_ms =
                std::chrono::duration<double, std::milli>(Clock::now() - t1)
                    .count();

            if (comm.rank() == 0) {
                std::printf(
                    "batch %d (+%zu edges): %.0f triangles | dynamic %.1f ms, "
                    "static recount %.1f ms%s\n",
                    b, hi - lo, tri, dyn_ms, stat_ms,
                    tri == tri_static ? "" : "  [MISMATCH!]");
            }
        }

        // Cross-check the maintained count against a rescan of C under A.
        const double maintained = counter.maintained_count();
        const double rescanned = counter.count();
        if (comm.rank() == 0)
            std::printf("maintained %.0f triangles, rescan %.0f%s\n",
                        maintained, rescanned,
                        maintained == rescanned ? "" : "  [MISMATCH!]");
    });
    return 0;
}
