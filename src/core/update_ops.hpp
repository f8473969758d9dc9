// Dynamic update operations (Section IV-A):
//  - building a distributed hypersparse update matrix A* from locally
//    generated tuples (involves the redistribution of Section IV-B);
//  - ADD:   A <- A (+) A*   (semiring addition; algebraic updates);
//  - MERGE: replace the value of every (i, j) present in A*;
//  - MASK:  delete every (i, j) of A that is non-zero in A*.
//
// After A* is built, all three operations are purely local. Local application
// groups updates by (row mod T) with a counting sort and applies the groups
// on T threads in parallel — different threads then touch disjoint rows of
// the DHB block, exactly the scheme of Section IV-B.
#pragma once

#include <vector>

#include "core/dist_matrix.hpp"
#include "core/redistribute.hpp"
#include "par/profiler.hpp"
#include "par/thread_pool.hpp"
#include "sparse/semiring.hpp"

namespace dsg::core {

/// Builds the distributed update matrix from tuples generated anywhere:
/// redistributes them to owner ranks and assembles a local-index DCSR block
/// per rank. Collective.
template <typename T>
DistDcsr<T> build_update_matrix(ProcessGrid& grid, index_t nrows, index_t ncols,
                                std::vector<Triple<T>> tuples,
                                RedistMode mode = RedistMode::TwoPhase) {
    using par::Phase;
    using par::Profiler;
    DistDcsr<T> out(grid, nrows, ncols);
    auto mine =
        redistribute_tuples(grid, out.shape(), std::move(tuples), mode);

    Profiler::Scope scope(Phase::LocalConstruct);
    // Map to block-local coordinates.
    for (auto& t : mine) {
        t.row = out.shape().local_row(t.row);
        t.col = out.shape().local_col(t.col);
    }
    // Group by local row (counting sort over local rows) to form the DCSR.
    const auto local_rows = static_cast<std::size_t>(out.shape().local_rows());
    if (local_rows > 0) {
        sparse::counting_sort(mine, local_rows, [](const Triple<T>& t) {
            return static_cast<std::size_t>(t.row);
        });
    }
    out.local() = Dcsr<T>::from_row_grouped(out.shape().local_rows(),
                                            out.shape().local_cols(), mine);
    return out;
}

namespace detail {

/// Applies fn(row, col, value) to every entry of the update block, with rows
/// bucketed by (row mod T) across T threads so each row is touched by exactly
/// one thread.
template <typename T, typename Fn>
void apply_rowwise(const Dcsr<T>& update, par::ThreadPool* pool, Fn&& fn) {
    const int threads = pool != nullptr ? pool->thread_count() : 1;
    if (threads == 1) {
        update.for_each(fn);
        return;
    }
    pool->parallel_for(static_cast<std::size_t>(threads),
                       [&](int, std::size_t tb, std::size_t te) {
                           for (std::size_t t = tb; t < te; ++t) {
                               for (std::size_t r = 0; r < update.row_count(); ++r) {
                                   const index_t row = update.row_id(r);
                                   if (static_cast<std::size_t>(row) % threads != t)
                                       continue;
                                   auto cols = update.row_cols(r);
                                   auto vals = update.row_values(r);
                                   for (std::size_t x = 0; x < cols.size(); ++x)
                                       fn(row, cols[x], vals[x]);
                               }
                           }
                       });
}

}  // namespace detail

/// A <- A (+) A* with the semiring addition (insertions / algebraic updates).
/// Local-only; requires A* built by build_update_matrix.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void add_update(DistDynamicMatrix<T>& A, const DistDcsr<T>& update,
                par::ThreadPool* pool = nullptr) {
    par::Profiler::Scope scope(par::Phase::LocalAddition);
    detail::apply_rowwise(update.local(), pool,
                          [&](index_t i, index_t j, const T& v) {
                              A.local().insert_or_add(i, j, v, SR::add);
                          });
}

/// MERGE(A, A*): replace (or insert) the value of every entry of A*
/// (general value updates, not expressible as semiring addition).
template <typename T>
void merge_update(DistDynamicMatrix<T>& A, const DistDcsr<T>& update,
                  par::ThreadPool* pool = nullptr) {
    par::Profiler::Scope scope(par::Phase::LocalAddition);
    detail::apply_rowwise(update.local(), pool,
                          [&](index_t i, index_t j, const T& v) {
                              A.local().insert_or_assign(i, j, v);
                          });
}

/// MASK(A, A*): remove every entry of A that is structurally non-zero in A*.
/// The values of the update matrix are irrelevant.
template <typename T, typename U>
void mask_delete(DistDynamicMatrix<T>& A, const DistDcsr<U>& update,
                 par::ThreadPool* pool = nullptr) {
    par::Profiler::Scope scope(par::Phase::LocalAddition);
    detail::apply_rowwise(update.local(), pool,
                          [&](index_t i, index_t j, const U&) {
                              A.local().erase(i, j);
                          });
}

/// Convenience: constructs a distributed dynamic matrix from tuples (the
/// paper's construction experiment): redistribute + bucketed local inserts.
/// Duplicates combine with the semiring addition. Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
DistDynamicMatrix<T> build_dynamic_matrix(ProcessGrid& grid, index_t nrows,
                                          index_t ncols,
                                          std::vector<Triple<T>> tuples,
                                          RedistMode mode = RedistMode::TwoPhase,
                                          par::ThreadPool* pool = nullptr) {
    DistDynamicMatrix<T> out(grid, nrows, ncols);
    auto mine =
        redistribute_tuples(grid, out.shape(), std::move(tuples), mode);
    par::Profiler::Scope scope(par::Phase::LocalAddition);
    const int threads = pool != nullptr ? pool->thread_count() : 1;
    auto insert_one = [&](const Triple<T>& t) {
        out.local().insert_or_add(out.shape().local_row(t.row),
                                  out.shape().local_col(t.col), t.value,
                                  SR::add);
    };
    if (threads == 1) {
        for (const auto& t : mine) insert_one(t);
    } else {
        // Bucket tuples by (local row mod T); each thread owns its buckets.
        std::vector<std::size_t> offsets;
        {
            par::Profiler::Scope sort_scope(par::Phase::RedistSort);
            offsets = sparse::counting_sort(
                mine, static_cast<std::size_t>(threads),
                [&](const Triple<T>& t) {
                    return static_cast<std::size_t>(
                               out.shape().local_row(t.row)) %
                           threads;
                });
        }
        pool->parallel_for(static_cast<std::size_t>(threads),
                           [&](int, std::size_t tb, std::size_t te) {
                               for (std::size_t t = tb; t < te; ++t)
                                   for (std::size_t x = offsets[t];
                                        x < offsets[t + 1]; ++x)
                                       insert_one(mine[x]);
                           });
    }
    return out;
}

}  // namespace dsg::core
