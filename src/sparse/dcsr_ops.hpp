// Element-wise and structural operations on DCSR matrices: the merge step of
// the sparse tree reduction (Section VI-A) and its wire form, transposition
// (Section V-C), the row/column block slices that feed the rectangular-grid
// SUMMA and slab exchanges, and the value/bits splitting helpers of the Bloom
// machinery.
#pragma once

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "sparse/dcsr.hpp"
#include "sparse/flat_map.hpp"
#include "sparse/local_spgemm.hpp"
#include "sparse/spa.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

/// C = A (+) B element-wise with add(old, new); structural union. Both inputs
/// and the output are DCSR with ascending rows (columns unsorted). This is
/// the combine function of the binomial-tree sparse reduction.
template <typename V, typename AddOp>
Dcsr<V> dcsr_add(const Dcsr<V>& a, const Dcsr<V>& b, AddOp&& add) {
    Dcsr<V> out(a.nrows(), a.ncols());
    SparseAccumulator<V> acc;
    std::size_t ra = 0;
    std::size_t rb = 0;
    auto emit_plain = [&](const Dcsr<V>& m, std::size_t r) {
        out.begin_row(m.row_id(r));
        auto cols = m.row_cols(r);
        auto vals = m.row_values(r);
        for (std::size_t x = 0; x < cols.size(); ++x)
            out.push_entry(cols[x], vals[x]);
    };
    while (ra < a.row_count() || rb < b.row_count()) {
        if (rb == b.row_count() ||
            (ra < a.row_count() && a.row_id(ra) < b.row_id(rb))) {
            emit_plain(a, ra++);
        } else if (ra == a.row_count() || b.row_id(rb) < a.row_id(ra)) {
            emit_plain(b, rb++);
        } else {
            // Shared row: combine through an accumulator.
            auto push = [&](const Dcsr<V>& m, std::size_t r) {
                auto cols = m.row_cols(r);
                auto vals = m.row_values(r);
                for (std::size_t x = 0; x < cols.size(); ++x)
                    acc.add(cols[x], vals[x], add);
            };
            push(a, ra);
            push(b, rb);
            out.begin_row(a.row_id(ra));
            auto cols = acc.cols();
            auto vals = acc.values();
            for (std::size_t x = 0; x < cols.size(); ++x)
                out.push_entry(cols[x], vals[x]);
            acc.reset();
            ++ra;
            ++rb;
        }
    }
    return out;
}

/// dcsr_add on serialized blocks: the merge callback of the binomial-tree
/// sparse reduction (par::Comm::reduce_merge / ireduce_merge). Algorithm 1
/// runs it on interior tree nodes only; its roots add what they receive
/// straight into C (core::detail::algebraic_rounds).
template <typename V, typename AddOp>
par::Buffer dcsr_add_wire(const par::Buffer& a, const par::Buffer& b,
                          AddOp&& add) {
    return dcsr_add(Dcsr<V>::deserialize(a), Dcsr<V>::deserialize(b),
                    std::forward<AddOp>(add))
        .serialize();
}

/// Transpose via counting sort by column; O(nnz + ncols). Used to
/// pre-transpose hypersparse blocks when SpGEMM operands are transposed
/// (Section V-C).
template <typename V>
Dcsr<V> dcsr_transpose(const Dcsr<V>& m) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(m.ncols()) + 1, 0);
    m.for_each([&](index_t, index_t j, const V&) {
        ++counts[static_cast<std::size_t>(j) + 1];
    });
    for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
    std::vector<Triple<V>> flipped(m.nnz());
    m.for_each([&](index_t i, index_t j, const V& v) {
        flipped[counts[static_cast<std::size_t>(j)]++] = {j, i, v};
    });
    return Dcsr<V>::from_row_grouped(m.ncols(), m.nrows(), flipped);
}

/// The rows of m with ids in [lo, hi), reindexed to start at zero; the
/// result has dimensions (hi - lo, m.ncols()).
template <typename V>
Dcsr<V> dcsr_row_block(const Dcsr<V>& m, index_t lo, index_t hi) {
    Dcsr<V> out(hi - lo, m.ncols());
    for (std::size_t r = 0; r < m.row_count(); ++r) {
        const index_t row = m.row_id(r);
        if (row < lo) continue;
        if (row >= hi) break;
        out.begin_row(row - lo);
        auto cols = m.row_cols(r);
        auto vals = m.row_values(r);
        for (std::size_t x = 0; x < cols.size(); ++x)
            out.push_entry(cols[x], vals[x]);
    }
    return out;
}

/// The columns of m with ids in [lo, hi), reindexed to start at zero; rows
/// emptied by the slice are dropped (double compression preserved). The
/// result has dimensions (m.nrows(), hi - lo).
template <typename V>
Dcsr<V> dcsr_col_block(const Dcsr<V>& m, index_t lo, index_t hi) {
    Dcsr<V> out(m.nrows(), hi - lo);
    for (std::size_t r = 0; r < m.row_count(); ++r) {
        out.begin_row(m.row_id(r));
        auto cols = m.row_cols(r);
        auto vals = m.row_values(r);
        for (std::size_t x = 0; x < cols.size(); ++x)
            if (cols[x] >= lo && cols[x] < hi)
                out.push_entry(cols[x] - lo, vals[x]);
        out.end_row();
    }
    return out;
}

/// Assembles triples with pairwise-distinct coordinates — e.g. blocks whose
/// row or column ranges are disjoint — into a DCSR. Sorts by (row, col);
/// O(nnz log nnz).
template <typename V>
Dcsr<V> dcsr_from_unique_triples(index_t nrows, index_t ncols,
                                 std::vector<Triple<V>> triples) {
    std::sort(triples.begin(), triples.end(), [](const auto& a, const auto& b) {
        return std::tie(a.row, a.col) < std::tie(b.row, b.col);
    });
    return Dcsr<V>::from_row_grouped(nrows, ncols, triples);
}

/// Splits a ValueBits matrix into its value part and its Bloom-bits part
/// (same sparsity structure).
template <typename T>
std::pair<Dcsr<T>, Dcsr<std::uint64_t>> split_value_bits(
    const Dcsr<ValueBits<T>>& m) {
    Dcsr<T> values(m.nrows(), m.ncols());
    Dcsr<std::uint64_t> bits(m.nrows(), m.ncols());
    for (std::size_t r = 0; r < m.row_count(); ++r) {
        values.begin_row(m.row_id(r));
        bits.begin_row(m.row_id(r));
        auto cols = m.row_cols(r);
        auto vals = m.row_values(r);
        for (std::size_t x = 0; x < cols.size(); ++x) {
            values.push_entry(cols[x], vals[x].value);
            bits.push_entry(cols[x], vals[x].bits);
        }
    }
    return {std::move(values), std::move(bits)};
}

/// The set of coordinates of a DCSR, as a PairSet keyed within the block.
template <typename V>
PairSet dcsr_pattern(const Dcsr<V>& m) {
    PairSet set(m.ncols(), m.nnz());
    m.for_each([&](index_t i, index_t j, const V&) { set.insert(i, j); });
    return set;
}

}  // namespace dsg::sparse
