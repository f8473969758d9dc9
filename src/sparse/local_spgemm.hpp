// Gustavson row-wise local SpGEMM (Section VI-A), generic over:
//  - the left operand layout (CSR, DCSR, DynamicMatrix) — streamed row-wise;
//  - the right operand layout — accessed by row id in O(1) expected time;
//  - the accumulation (semiring add) and the per-term value (semiring mul,
//    or the Bloom bit 1 << (k mod 64) for the pattern computation of
//    Algorithm 2, or both at once);
//  - an optional output mask (the C* mask of the general algorithm);
//  - intra-rank parallelism across left rows via a ThreadPool, each thread
//    owning a private sparse accumulator (Section VI-A).
//
// The output is a DCSR with rows in ascending order; columns within a row are
// unsorted (insertion order of the accumulator), consistent with the rest of
// the library.
#pragma once

#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "sparse/csr.hpp"
#include "sparse/dcsr.hpp"
#include "sparse/dynamic_matrix.hpp"
#include "sparse/semiring.hpp"
#include "sparse/spa.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

// -- left-operand adapters (row streams) ---------------------------------------

template <typename T>
struct CsrLeft {
    const Csr<T>& m;
    [[nodiscard]] std::size_t stream_count() const {
        return static_cast<std::size_t>(m.nrows());
    }
    [[nodiscard]] index_t row_id(std::size_t slot) const {
        return static_cast<index_t>(slot);
    }
    [[nodiscard]] std::size_t row_size(std::size_t slot) const {
        return m.row_cols(static_cast<index_t>(slot)).size();
    }
    template <typename G>
    void entries(std::size_t slot, G&& g) const {
        const auto i = static_cast<index_t>(slot);
        auto cols = m.row_cols(i);
        auto vals = m.row_values(i);
        for (std::size_t k = 0; k < cols.size(); ++k) g(cols[k], vals[k]);
    }
};

template <typename T>
struct DcsrLeft {
    const Dcsr<T>& m;
    [[nodiscard]] std::size_t stream_count() const { return m.row_count(); }
    [[nodiscard]] index_t row_id(std::size_t slot) const { return m.row_id(slot); }
    [[nodiscard]] std::size_t row_size(std::size_t slot) const {
        return m.row_cols(slot).size();
    }
    template <typename G>
    void entries(std::size_t slot, G&& g) const {
        auto cols = m.row_cols(slot);
        auto vals = m.row_values(slot);
        for (std::size_t k = 0; k < cols.size(); ++k) g(cols[k], vals[k]);
    }
};

template <typename T>
struct DynLeft {
    const DynamicMatrix<T>& m;
    [[nodiscard]] std::size_t stream_count() const {
        return static_cast<std::size_t>(m.nrows());
    }
    [[nodiscard]] index_t row_id(std::size_t slot) const {
        return static_cast<index_t>(slot);
    }
    [[nodiscard]] std::size_t row_size(std::size_t slot) const {
        return m.row_size(static_cast<index_t>(slot));
    }
    template <typename G>
    void entries(std::size_t slot, G&& g) const {
        for (const auto& e : m.row(static_cast<index_t>(slot))) g(e.col, e.value);
    }
};

template <typename T>
CsrLeft<T> as_left(const Csr<T>& m) { return {m}; }
template <typename T>
DcsrLeft<T> as_left(const Dcsr<T>& m) { return {m}; }
template <typename T>
DynLeft<T> as_left(const DynamicMatrix<T>& m) { return {m}; }

// -- right-operand adapters (row lookup) ----------------------------------------
//
// kDistinctCols: whether every row the adapter yields has pairwise-distinct
// columns. A DynamicMatrix row does by construction; CSR and DCSR blocks may
// carry duplicate coordinates (update slabs keep them uncombined).

template <typename T>
struct CsrRight {
    static constexpr bool kDistinctCols = false;
    const Csr<T>& m;
    template <typename G>
    void row(index_t k, G&& g) const {
        auto cols = m.row_cols(k);
        auto vals = m.row_values(k);
        for (std::size_t x = 0; x < cols.size(); ++x) g(cols[x], vals[x]);
    }
};

template <typename T>
struct DynRight {
    static constexpr bool kDistinctCols = true;
    const DynamicMatrix<T>& m;
    template <typename G>
    void row(index_t k, G&& g) const {
        for (const auto& e : m.row(k)) g(e.col, e.value);
    }
};

/// Right access into a DCSR via a transient row-id hash (see dcsr.hpp).
template <typename T>
struct DcsrRight {
    static constexpr bool kDistinctCols = false;
    DcsrRowLookup<T> lookup;
    explicit DcsrRight(const Dcsr<T>& m) : lookup(m) {}
    template <typename G>
    void row(index_t k, G&& g) const {
        const auto pos = lookup.position(k);
        if (pos == DcsrRowLookup<T>::npos) return;
        const auto& m = lookup.matrix();
        auto cols = m.row_cols(pos);
        auto vals = m.row_values(pos);
        for (std::size_t x = 0; x < cols.size(); ++x) g(cols[x], vals[x]);
    }
};

template <typename T>
CsrRight<T> as_right(const Csr<T>& m) { return {m}; }
template <typename T>
DynRight<T> as_right(const DynamicMatrix<T>& m) { return {m}; }
template <typename T>
DcsrRight<T> as_right(const Dcsr<T>& m) { return DcsrRight<T>(m); }

// -- kernel ----------------------------------------------------------------------

struct SpgemmOptions {
    /// Output mask: only (i, j) contained in the mask are produced
    /// (Algorithm 2's "masked at C*"). Keys are (output row, output col).
    const PairSet* mask = nullptr;
    /// Added to the left operand's (local) column index to obtain the global
    /// inner-dimension index k used for Bloom bits.
    index_t inner_offset = 0;
    /// Intra-rank worker pool; nullptr runs sequentially.
    par::ThreadPool* pool = nullptr;
};

/// Value + Bloom bitfield accumulated together (initial SpGEMM that also
/// builds the filter matrix F, Section V-B).
template <typename T>
struct ValueBits {
    T value;
    std::uint64_t bits;
};

namespace detail {

template <typename V, typename AddOp, typename TermFn, typename Left,
          typename Right>
void spgemm_chunk(const Left& A, const Right& B, AddOp& add, TermFn& term,
                  const SpgemmOptions& opts, SparseAccumulator<V>& acc,
                  std::size_t slot_begin, std::size_t slot_end, Dcsr<V>& out) {
    for (std::size_t s = slot_begin; s < slot_end; ++s) {
        const index_t i = A.row_id(s);
        if constexpr (Right::kDistinctCols) {
            if (A.row_size(s) == 1) {
                // One left entry over a right row with distinct columns:
                // every term lands in its own output column, so the row is
                // written directly, bypassing the accumulator.
                out.begin_row(i);
                A.entries(s, [&](index_t k, const auto& a) {
                    B.row(k, [&](index_t j, const auto& b) {
                        if (opts.mask != nullptr && !opts.mask->contains(i, j))
                            return;
                        out.push_entry(j, term(a, b, k + opts.inner_offset));
                    });
                });
                out.end_row();
                continue;
            }
        }
        A.entries(s, [&](index_t k, const auto& a) {
            B.row(k, [&](index_t j, const auto& b) {
                if (opts.mask != nullptr && !opts.mask->contains(i, j)) return;
                acc.add(j, term(a, b, k + opts.inner_offset), add);
            });
        });
        if (acc.empty()) continue;
        out.begin_row(i);
        auto cols = acc.cols();
        auto vals = acc.values();
        for (std::size_t x = 0; x < cols.size(); ++x)
            out.push_entry(cols[x], vals[x]);
        acc.reset();
    }
}

}  // namespace detail

/// Generic Gustavson SpGEMM: out(i, j) = add-reduction over k of
/// term(A(i, k), B(k, j), k + inner_offset).
template <typename V, typename AddOp, typename TermFn, typename Left,
          typename Right>
Dcsr<V> spgemm_generic(index_t out_nrows, index_t out_ncols, const Left& A,
                       const Right& B, AddOp add, TermFn term,
                       const SpgemmOptions& opts = {}) {
    const std::size_t n = A.stream_count();
    if (opts.pool == nullptr || opts.pool->thread_count() == 1 || n < 2) {
        Dcsr<V> out(out_nrows, out_ncols);
        SparseAccumulator<V> acc;
        detail::spgemm_chunk(A, B, add, term, opts, acc, 0, n, out);
        return out;
    }
    // Fixed contiguous chunks so per-chunk outputs concatenate in row order.
    const int threads = opts.pool->thread_count();
    const std::size_t nchunks =
        std::min<std::size_t>(n, static_cast<std::size_t>(threads) * 4);
    const std::size_t chunk = (n + nchunks - 1) / nchunks;
    std::vector<Dcsr<V>> parts(nchunks);
    std::vector<SparseAccumulator<V>> accs(static_cast<std::size_t>(threads));
    opts.pool->parallel_for(nchunks, [&](int t, std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
            const std::size_t b = c * chunk;
            const std::size_t e = std::min(b + chunk, n);
            Dcsr<V> part(out_nrows, out_ncols);
            detail::spgemm_chunk(A, B, add, term, opts,
                                 accs[static_cast<std::size_t>(t)], b, e, part);
            parts[c] = std::move(part);
        }
    });
    Dcsr<V> out = std::move(parts[0]);
    for (std::size_t c = 1; c < nchunks; ++c) out.append_rows(parts[c]);
    return out;
}

/// Plain semiring SpGEMM: C = A · B over SR.
template <Semiring SR, typename Left, typename Right>
Dcsr<typename SR::value_type> spgemm(index_t out_nrows, index_t out_ncols,
                                     const Left& A, const Right& B,
                                     const SpgemmOptions& opts = {}) {
    using T = typename SR::value_type;
    return spgemm_generic<T>(
        out_nrows, out_ncols, A, B,
        [](const T& a, const T& b) { return SR::add(a, b); },
        [](const T& a, const T& b, index_t) { return SR::mul(a, b); }, opts);
}

/// Pattern-only SpGEMM: values are the Bloom bitfields of the contributing
/// inner indices (COMPUTEPATTERN of Algorithm 2). Input values are ignored.
template <typename Left, typename Right>
Dcsr<std::uint64_t> spgemm_pattern(index_t out_nrows, index_t out_ncols,
                                   const Left& A, const Right& B,
                                   const SpgemmOptions& opts = {}) {
    return spgemm_generic<std::uint64_t>(
        out_nrows, out_ncols, A, B,
        [](std::uint64_t a, std::uint64_t b) { return a | b; },
        [](const auto&, const auto&, index_t k) { return bloom_bit(k); }, opts);
}

/// SpGEMM producing both semiring values and Bloom bitfields in one pass
/// (used when the initial C = AB must also build the filter F).
template <Semiring SR, typename Left, typename Right>
Dcsr<ValueBits<typename SR::value_type>> spgemm_with_bloom(
    index_t out_nrows, index_t out_ncols, const Left& A, const Right& B,
    const SpgemmOptions& opts = {}) {
    using T = typename SR::value_type;
    using VB = ValueBits<T>;
    return spgemm_generic<VB>(
        out_nrows, out_ncols, A, B,
        [](const VB& a, const VB& b) {
            return VB{SR::add(a.value, b.value), a.bits | b.bits};
        },
        [](const T& a, const T& b, index_t k) {
            return VB{SR::mul(a, b), bloom_bit(k)};
        },
        opts);
}

}  // namespace dsg::sparse
