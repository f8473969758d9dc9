// Redistribution of update tuples to their owner ranks (Section IV-B).
//
// Ranks generate updates independently, with no knowledge of the data
// distribution. The paper's two-phase routine moves each tuple first to the
// correct grid *row* (an alltoallv within the tuple's process column, over
// `rows` buckets), then to the correct grid *column* (an alltoallv within the
// process row, over `cols` buckets). Each phase groups tuples with a counting
// sort over only one grid dimension's worth of buckets, and each alltoallv
// involves only that many peers (sqrt(p) on a square grid).
//
// RedistMode::DirectSort is the competitor strategy the paper measures
// against (CombBLAS-style): one comparison sort by destination rank followed
// by a single global alltoallv over all p ranks.
#pragma once

#include <algorithm>
#include <vector>

#include "core/dist_matrix.hpp"
#include "core/process_grid.hpp"
#include "par/profiler.hpp"
#include "sparse/coo.hpp"

namespace dsg::core {

enum class RedistMode {
    TwoPhase,    ///< the paper's algorithm (counting sort, sqrt(p) peers)
    DirectSort,  ///< baseline: comparison sort + one global alltoallv
};

namespace detail {

template <typename T>
par::Buffer pack_triples(const Triple<T>* data, std::size_t count) {
    par::Buffer buf;
    par::BufferWriter w(buf);
    w.write_span(std::span<const Triple<T>>(data, count));
    return buf;
}

template <typename T>
void unpack_triples(const par::Buffer& buf, std::vector<Triple<T>>& out) {
    par::BufferReader r(buf);
    auto part = r.template read_vector<Triple<T>>();
    out.insert(out.end(), part.begin(), part.end());
}

}  // namespace detail

/// Routes tuples (global coordinates) to the rank owning their block; returns
/// the tuples this rank owns, still in global coordinates. Collective.
template <typename T>
std::vector<Triple<T>> redistribute_tuples(ProcessGrid& grid,
                                           const DistShape& shape,
                                           std::vector<Triple<T>> tuples,
                                           RedistMode mode = RedistMode::TwoPhase) {
    using par::Phase;
    using par::Profiler;
    const int rows = grid.rows();
    const int cols = grid.cols();
    const auto& rp = shape.row_partition();
    const auto& cp = shape.col_partition();

    if (mode == RedistMode::DirectSort) {
        // Competitor path: sort by destination world rank, one global
        // exchange over all p ranks.
        {
            Profiler::Scope scope(Phase::RedistSort);
            std::sort(tuples.begin(), tuples.end(),
                      [&](const Triple<T>& a, const Triple<T>& b) {
                          const int ra = shape.owner_rank(a.row, a.col);
                          const int rb = shape.owner_rank(b.row, b.col);
                          if (ra != rb) return ra < rb;
                          return std::tie(a.row, a.col) < std::tie(b.row, b.col);
                      });
        }
        const int p = grid.world().size();
        std::vector<par::Buffer> send(static_cast<std::size_t>(p));
        {
            Profiler::Scope scope(Phase::RedistSort);
            std::size_t begin = 0;
            for (int dest = 0; dest < p; ++dest) {
                std::size_t end = begin;
                while (end < tuples.size() &&
                       shape.owner_rank(tuples[end].row, tuples[end].col) == dest)
                    ++end;
                send[static_cast<std::size_t>(dest)] =
                    detail::pack_triples(tuples.data() + begin, end - begin);
                begin = end;
            }
        }
        std::vector<par::Buffer> recv;
        {
            Profiler::Scope scope(Phase::RedistComm);
            recv = grid.world().alltoallv(std::move(send));
        }
        std::vector<Triple<T>> out;
        {
            Profiler::Scope scope(Phase::MemManagement);
            for (const auto& buf : recv) detail::unpack_triples(buf, out);
        }
        return out;
    }

    // Phase 1: to the correct grid row, exchanging within this process
    // column. col_comm ranks are ordered by grid row (`rows` buckets).
    std::vector<std::size_t> offsets;
    {
        Profiler::Scope scope(Phase::RedistSort);
        offsets = sparse::counting_sort(
            tuples, static_cast<std::size_t>(rows),
            [&](const Triple<T>& t) { return rp.owner(t.row); });
    }
    {
        std::vector<par::Buffer> send(static_cast<std::size_t>(rows));
        for (int dest = 0; dest < rows; ++dest)
            send[static_cast<std::size_t>(dest)] = detail::pack_triples(
                tuples.data() + offsets[static_cast<std::size_t>(dest)],
                offsets[static_cast<std::size_t>(dest) + 1] -
                    offsets[static_cast<std::size_t>(dest)]);
        std::vector<par::Buffer> recv;
        {
            Profiler::Scope scope(Phase::RedistComm);
            recv = grid.col_comm().alltoallv(std::move(send));
        }
        tuples.clear();
        {
            Profiler::Scope scope(Phase::MemManagement);
            for (const auto& buf : recv) detail::unpack_triples(buf, tuples);
        }
    }

    // Phase 2: to the correct grid column, exchanging within this process
    // row. row_comm ranks are ordered by grid column (`cols` buckets).
    {
        Profiler::Scope scope(Phase::RedistSort);
        offsets = sparse::counting_sort(
            tuples, static_cast<std::size_t>(cols),
            [&](const Triple<T>& t) { return cp.owner(t.col); });
    }
    {
        std::vector<par::Buffer> send(static_cast<std::size_t>(cols));
        for (int dest = 0; dest < cols; ++dest)
            send[static_cast<std::size_t>(dest)] = detail::pack_triples(
                tuples.data() + offsets[static_cast<std::size_t>(dest)],
                offsets[static_cast<std::size_t>(dest) + 1] -
                    offsets[static_cast<std::size_t>(dest)]);
        std::vector<par::Buffer> recv;
        {
            Profiler::Scope scope(Phase::RedistComm);
            recv = grid.row_comm().alltoallv(std::move(send));
        }
        tuples.clear();
        {
            Profiler::Scope scope(Phase::MemManagement);
            for (const auto& buf : recv) detail::unpack_triples(buf, tuples);
        }
    }
    return tuples;
}

}  // namespace dsg::core
