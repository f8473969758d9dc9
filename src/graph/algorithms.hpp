// Algebraic graph algorithms on top of the distributed SpGEMM stack — the
// application classes the paper's introduction motivates, each in a static
// and a dynamic (incrementally maintained) variant:
//
//  - triangle_count / DynamicTriangleCounter — exact triangle counting via
//    masked SUMMA, maintained as C = A·A under signed batches of edge
//    insertions and deletions (deletions are algebraic in the (+,*) ring);
//  - khop_distances / DynamicMultiSourceProduct — multi-source (min,+)
//    shortest distances; the dynamic class maintains the one-hop product
//    D = S·A under algebraic updates (insertions / weight decreases);
//  - DynamicContraction — cluster contraction C = Sᵀ·A·S maintained under
//    batch edge insertions via the transposed variant of Algorithm 1.
//
// The free helpers (elementwise_combine, source_selector) are the small
// algebra the classes share. For continuously maintaining these values
// against a live op stream, see the adapters in
// src/analytics/graph_maintainers.hpp.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "core/dynamic_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "par/buffer.hpp"
#include "sparse/semiring.hpp"

namespace dsg::graph {

using core::DistDcsr;
using core::DistDynamicMatrix;
using core::ProcessGrid;

namespace detail {

/// Replaces a distributed matrix's local block with a tile deserialized
/// from a checkpoint blob (src/persist/), validating the block shape. The
/// distribution itself is not serialized — the caller reconstructs the
/// object on the same grid, which recovery verifies against the manifest.
inline void restore_local_block(DistDynamicMatrix<double>& m,
                                par::BufferReader& r) {
    auto tile = sparse::DynamicMatrix<double>::deserialize(r);
    if (tile.nrows() != m.local().nrows() || tile.ncols() != m.local().ncols())
        throw std::runtime_error(
            "restore_local_block: tile shape disagrees with this rank's "
            "block (was the checkpoint taken on a different grid?)");
    m.local() = tile;
}

}  // namespace detail

/// Element-wise combine of two identically distributed matrices:
/// A <- A (+) B with add(old, new). Local-only.
template <typename T, typename AddFn>
void elementwise_combine(DistDynamicMatrix<T>& A, const DistDynamicMatrix<T>& B,
                         AddFn&& add) {
    B.local().for_each([&](sparse::index_t i, sparse::index_t j, const T& v) {
        A.local().insert_or_add(i, j, v, add);
    });
}

/// Exact triangle count of an undirected simple graph given as a 0/1
/// adjacency matrix (both edge directions present, no self loops):
/// sum((A*A) .* A) = 6 * triangles. Uses masked SUMMA, so only the entries
/// under the mask are ever formed. Collective.
inline double triangle_count(const DistDynamicMatrix<double>& A,
                             par::ThreadPool* pool = nullptr) {
    sparse::PairSet mask(A.shape().local_cols(), A.local().nnz());
    A.local().for_each(
        [&](sparse::index_t i, sparse::index_t j, double) { mask.insert(i, j); });
    core::SummaOptions opts;
    opts.local_mask = &mask;
    opts.pool = pool;
    auto C = core::summa_multiply<sparse::PlusTimes<double>>(A, A, opts);
    double local = 0.0;
    C.local().for_each(
        [&](sparse::index_t, sparse::index_t, double v) { local += v; });
    const double total = A.shape().grid().world().allreduce<double>(
        local, [](double a, double b) { return a + b; });
    return total / 6.0;
}

/// Maintains A and C = A·A under signed batches of edge updates, and the
/// triangle count from the update alone.
///
/// A batch is one signed update D: +1 for a new edge, -1 for an existing
/// one. In the (+,*) ring a deletion is just another algebraic update
/// (Section V: "A* can simply be computed as A' - A in rings"), so
/// A'A' = AA + A D + D A' maintains C with two passes of Algorithm 1: first
/// C += A D with the pre-update A, then A += D, then C += D A' with the
/// post-update A (no second copy of A). Each pass pays only for what D
/// touches:
///  - every C entry an absorbed row leaves at exactly 0 is erased there
///    (all values are integers, so cancellation is exact), and A is erased
///    at D's -1 coordinates; no stored zero survives a batch;
///  - S = sum(C .* A) over this rank's block (all-reduced, six times the
///    triangle count) follows
///        dS = sum(C*_1 .* A) + sum_D d * C_1(i, j) + sum(C*_2 .* A'),
///    with C_1 = C after pass 1 and C*_k what pass k adds: the outer terms
///    are read off the absorbed rows, the middle one is one lookup of C_1
///    per entry of D. Every term is an integer below 2^53, so S is exact in
///    any order.
class DynamicTriangleCounter {
public:
    DynamicTriangleCounter(ProcessGrid& grid, sparse::index_t n,
                           par::ThreadPool* pool = nullptr)
        : a_(grid, n, n), c_(grid, n, n), pool_(pool) {}

    /// Seeds the graph (collective). Edge tuples must contain both directions
    /// of each undirected edge, value 1.0.
    void initialize(std::vector<sparse::Triple<double>> edges) {
        auto update = core::build_update_matrix(a_.shape().grid(),
                                                a_.shape().nrows(),
                                                a_.shape().ncols(),
                                                std::move(edges));
        core::add_update<Ring>(a_, update, pool_);
        c_ = core::summa_multiply<Ring>(a_, a_, summa_opts());
        s_ = local_masked_sum();
    }

    /// Applies one signed batch and updates C = A*A and the maintained count.
    /// Value +1 inserts an edge not in the graph, -1 removes one that is;
    /// both directions of every edge are given and no coordinate appears
    /// twice. Collective.
    void update_edges(std::vector<sparse::Triple<double>> edges) {
        ProcessGrid& grid = a_.shape().grid();
        const auto n = a_.shape().nrows();
        auto d = core::build_update_matrix(grid, n, n, std::move(edges));
        DistDcsr<double> empty(grid, n, n);
        core::DynamicSpgemmOptions opts;
        opts.pool = pool_;
        // The absorbed-row sink of both passes: adds C* .* A (A as the pass
        // multiplies it) into S and erases the C entries the add left at 0.
        // It reads C, not the partial: a coordinate may be absorbed more
        // than once, and interior merges may forward explicit zeros.
        auto sink = [&](sparse::index_t r,
                        std::span<const sparse::index_t> cols,
                        std::span<const double> vals) {
            for (std::size_t x = 0; x < cols.size(); ++x) {
                if (const double* a = a_.local().find(r, cols[x]))
                    s_ += vals[x] * *a;
                const double* c = c_.local().find(r, cols[x]);
                if (c != nullptr && *c == 0.0) c_.local().erase(r, cols[x]);
            }
        };
        // Pass 1: C += A D with A before the update.
        core::dynamic_spgemm_algebraic<Ring>(c_, a_, empty, a_, d, opts, sink);
        // sum_D d * C_1, then A' = A + D without the cancelled entries.
        d.local().for_each([&](sparse::index_t i, sparse::index_t j, double v) {
            if (const double* c = c_.local().find(i, j)) s_ += v * *c;
        });
        core::add_update<Ring>(a_, d, pool_);
        d.local().for_each([&](sparse::index_t i, sparse::index_t j, double v) {
            if (v < 0.0) a_.local().erase(i, j);
        });
        // Pass 2: C += D A' with A after the update.
        core::dynamic_spgemm_algebraic<Ring>(c_, a_, d, a_, empty, opts, sink);
    }

    /// Inserts *new* edges (both directions). Collective.
    void insert_edges(std::vector<sparse::Triple<double>> edges) {
        update_edges(with_value(std::move(edges), 1.0));
    }

    /// Removes *existing* edges (both directions): the update d = -1.
    /// Collective.
    void remove_edges(std::vector<sparse::Triple<double>> edges) {
        update_edges(with_value(std::move(edges), -1.0));
    }

    /// The maintained triangle count, S / 6. Collective (one scalar
    /// all-reduce; no rescan).
    [[nodiscard]] double maintained_count() const {
        return global_sum(s_) / 6.0;
    }

    /// Triangle count recomputed by a rescan: sum of C under the mask A,
    /// divided by 6 — the check on maintained_count(). Collective (one
    /// scalar all-reduce; no matrix communication).
    [[nodiscard]] double count() const {
        return global_sum(local_masked_sum()) / 6.0;
    }

    [[nodiscard]] const DistDynamicMatrix<double>& adjacency() const {
        return a_;
    }
    [[nodiscard]] const DistDynamicMatrix<double>& square() const { return c_; }

    /// Rank-local checkpoint of A and C = A·A (src/persist/); pair with
    /// load() on an identically constructed counter on the same grid. S is
    /// not stored: load() recomputes it by a local rescan.
    void save(par::Buffer& out) const {
        a_.local().serialize(out);
        c_.local().serialize(out);
    }
    void load(par::BufferReader& in) {
        detail::restore_local_block(a_, in);
        detail::restore_local_block(c_, in);
        s_ = local_masked_sum();
    }

private:
    using Ring = sparse::PlusTimes<double>;

    static std::vector<sparse::Triple<double>> with_value(
        std::vector<sparse::Triple<double>> edges, double value) {
        for (auto& e : edges) e.value = value;
        return edges;
    }

    [[nodiscard]] double local_masked_sum() const {
        double local = 0.0;
        a_.local().for_each([&](sparse::index_t i, sparse::index_t j, double) {
            if (const double* v = c_.local().find(i, j)) local += *v;
        });
        return local;
    }

    [[nodiscard]] double global_sum(double local) const {
        return a_.shape().grid().world().allreduce<double>(
            local, [](double x, double y) { return x + y; });
    }

    core::SummaOptions summa_opts() const {
        core::SummaOptions opts;
        opts.pool = pool_;
        return opts;
    }

    DistDynamicMatrix<double> a_;
    DistDynamicMatrix<double> c_;
    par::ThreadPool* pool_;
    double s_ = 0.0;  // rank-local sum(C .* A)
};

/// Builds the source-selector matrix S (|sources| x n) over (min,+): row s
/// has a single entry one() = 0 at column sources[s]. Collective.
inline DistDynamicMatrix<double> source_selector(
    ProcessGrid& grid, sparse::index_t n,
    const std::vector<sparse::index_t>& sources) {
    DistDynamicMatrix<double> S(grid, static_cast<sparse::index_t>(sources.size()),
                                n);
    std::vector<sparse::Triple<double>> entries;
    if (grid.world().rank() == 0) {
        for (std::size_t s = 0; s < sources.size(); ++s)
            entries.push_back({static_cast<sparse::index_t>(s), sources[s],
                               sparse::MinPlus<double>::one()});
    }
    auto update = core::build_update_matrix(grid, S.shape().nrows(), n,
                                            std::move(entries));
    core::add_update<sparse::MinPlus<double>>(S, update);
    return S;
}

/// Multi-source shortest distances within at most `hops` hops over (min,+):
/// D = min(S A, S A^2, ..., S A^hops). Entry (s, v) is the length of the
/// shortest s -> v path using <= hops edges (absent = unreachable; a source
/// reaches itself only via an actual cycle, matching the algebraic product).
/// Collective.
inline DistDynamicMatrix<double> khop_distances(
    const DistDynamicMatrix<double>& A, DistDynamicMatrix<double>& S, int hops,
    par::ThreadPool* pool = nullptr) {
    core::SummaOptions opts;
    opts.pool = pool;
    auto D = core::summa_multiply<sparse::MinPlus<double>>(S, A, opts);
    auto frontier = D;  // S A^h
    for (int h = 2; h <= hops; ++h) {
        frontier =
            core::summa_multiply<sparse::MinPlus<double>>(frontier, A, opts);
        elementwise_combine(D, frontier,
                            [](double a, double b) { return std::min(a, b); });
    }
    return D;
}

/// Maintains the one-hop product D = S A over (min,+) under *algebraic*
/// updates of A (new edges or weight decreases): D' = D min S A*, a single
/// Algorithm 1 call in which only the right operand changed.
class DynamicMultiSourceProduct {
public:
    DynamicMultiSourceProduct(ProcessGrid& grid, sparse::index_t n,
                              const std::vector<sparse::index_t>& sources,
                              par::ThreadPool* pool = nullptr)
        : s_(source_selector(grid, n, sources)),
          a_(grid, n, n),
          d_(grid, static_cast<sparse::index_t>(sources.size()), n),
          pool_(pool) {}

    /// Seeds the graph (collective); edge values are (min,+) weights.
    void initialize(std::vector<sparse::Triple<double>> edges) {
        auto update = core::build_update_matrix(a_.shape().grid(),
                                                a_.shape().nrows(),
                                                a_.shape().ncols(),
                                                std::move(edges));
        core::add_update<sparse::MinPlus<double>>(a_, update, pool_);
        core::SummaOptions opts;
        opts.pool = pool_;
        d_ = core::summa_multiply<sparse::MinPlus<double>>(s_, a_, opts);
    }

    /// Algebraic batch: inserts edges / lowers weights; D is maintained with
    /// one dynamic SpGEMM round over the hypersparse A*. Collective.
    void apply_decreases(std::vector<sparse::Triple<double>> edges) {
        ProcessGrid& grid = a_.shape().grid();
        const auto n = a_.shape().nrows();
        auto astar = core::build_update_matrix(grid, n, n, std::move(edges));
        DistDcsr<double> s_empty(grid, s_.shape().nrows(), n);
        core::DynamicSpgemmOptions opts;
        opts.pool = pool_;
        // D' = D min (S A*): left operand S unchanged, right updated.
        core::add_update<sparse::MinPlus<double>>(a_, astar, pool_);
        core::dynamic_spgemm_algebraic<sparse::MinPlus<double>>(
            d_, s_, s_empty, a_, astar, opts);
    }

    [[nodiscard]] const DistDynamicMatrix<double>& distances() const {
        return d_;
    }
    [[nodiscard]] const DistDynamicMatrix<double>& adjacency() const {
        return a_;
    }
    [[nodiscard]] DistDynamicMatrix<double>& selector() { return s_; }

    /// Rank-local checkpoint of S, A, and D = S·A (src/persist/).
    void save(par::Buffer& out) const {
        s_.local().serialize(out);
        a_.local().serialize(out);
        d_.local().serialize(out);
    }
    void load(par::BufferReader& in) {
        detail::restore_local_block(s_, in);
        detail::restore_local_block(a_, in);
        detail::restore_local_block(d_, in);
    }

private:
    DistDynamicMatrix<double> s_;
    DistDynamicMatrix<double> a_;
    DistDynamicMatrix<double> d_;
    par::ThreadPool* pool_;
};

/// Maintains a graph contraction C = S^T A S under edge insertions — the
/// second application the paper's introduction motivates. S is the n x s
/// cluster-assignment selector (one 1 per row); entry C(a, b) accumulates
/// the total weight of edges from cluster a to cluster b.
///
/// Both stages stay dynamic: T = A S follows A* through Algorithm 1 (which
/// also emits T* = A* S), and C = S^T T follows T* through the transposed
/// variant of Algorithm 1 (Section V-C) — per batch, only hypersparse
/// matrices cross rank boundaries.
class DynamicContraction {
public:
    /// assignment[v] = cluster of vertex v (in [0, clusters)); identical on
    /// every rank. Collective.
    DynamicContraction(ProcessGrid& grid, sparse::index_t n,
                       sparse::index_t clusters,
                       const std::vector<sparse::index_t>& assignment,
                       par::ThreadPool* pool = nullptr)
        : a_(grid, n, n),
          s_(grid, n, clusters),
          t_(grid, n, clusters),
          c_(grid, clusters, clusters),
          pool_(pool) {
        std::vector<sparse::Triple<double>> entries;
        if (grid.world().rank() == 0) {
            entries.reserve(assignment.size());
            for (std::size_t v = 0; v < assignment.size(); ++v)
                entries.push_back({static_cast<sparse::index_t>(v),
                                   assignment[v], 1.0});
        }
        auto update = core::build_update_matrix(grid, n, clusters,
                                                std::move(entries));
        core::add_update<sparse::PlusTimes<double>>(s_, update, pool_);
    }

    /// Inserts weighted edges into A and updates T = A S and C = S^T A S
    /// dynamically. Collective.
    void insert_edges(std::vector<sparse::Triple<double>> edges) {
        ProcessGrid& grid = a_.shape().grid();
        const auto n = a_.shape().nrows();
        const auto s = s_.shape().ncols();
        auto astar = core::build_update_matrix(grid, n, n, std::move(edges));
        core::DynamicSpgemmOptions opts;
        opts.pool = pool_;

        // Stage 1: T += A* S, capturing T* = A* S for the next stage.
        DistDynamicMatrix<double> tstar_dyn(grid, n, s);
        core::DistDcsr<double> empty_ns(grid, n, s);
        core::dynamic_spgemm_algebraic<sparse::PlusTimes<double>>(
            t_, a_, astar, s_, empty_ns, opts,
            [&](sparse::index_t r, std::span<const sparse::index_t> cols,
                std::span<const double> vals) {
                tstar_dyn.local().add_row(r, cols, vals,
                                          sparse::PlusTimes<double>::add);
            });
        core::add_update<sparse::PlusTimes<double>>(a_, astar, pool_);

        // Stage 2: C += S^T T* (transposed-left dynamic SpGEMM).
        core::DistDcsr<double> tstar(grid, n, s);
        tstar.local() = tstar_dyn.local().to_dcsr();
        core::DistDcsr<double> empty_sel(grid, n, s);
        core::dynamic_spgemm_algebraic_transA<sparse::PlusTimes<double>>(
            c_, s_, empty_sel, t_, tstar, opts);
    }

    [[nodiscard]] const DistDynamicMatrix<double>& contracted() const {
        return c_;
    }
    [[nodiscard]] const DistDynamicMatrix<double>& adjacency() const {
        return a_;
    }
    [[nodiscard]] const DistDynamicMatrix<double>& selector() const {
        return s_;
    }

    /// Rank-local checkpoint of A, S, T = A·S, C = SᵀAS (src/persist/).
    void save(par::Buffer& out) const {
        a_.local().serialize(out);
        s_.local().serialize(out);
        t_.local().serialize(out);
        c_.local().serialize(out);
    }
    void load(par::BufferReader& in) {
        detail::restore_local_block(a_, in);
        detail::restore_local_block(s_, in);
        detail::restore_local_block(t_, in);
        detail::restore_local_block(c_, in);
    }

private:
    DistDynamicMatrix<double> a_;
    DistDynamicMatrix<double> s_;
    DistDynamicMatrix<double> t_;  // A S
    DistDynamicMatrix<double> c_;  // S^T A S
    par::ThreadPool* pool_;
};

}  // namespace dsg::graph
