// Message-passing runtime: the MPI substitute this library is built on.
//
// The paper's algorithms are expressed in terms of MPI ranks arranged in a
// sqrt(p) x sqrt(p) grid, point-to-point messages, broadcasts, all-to-all
// exchanges, reductions and communicator splits. This header provides exactly
// that interface (dsg::par::Comm); the backend runs each rank as a thread of
// the current process with per-rank mailboxes and barrier-synchronized
// collective exchanges. All traffic is accounted in CommStats so benchmarks
// can report the communication volume each algorithm would place on a real
// interconnect (the quantity the paper's analysis is about).
//
// Semantics follow MPI:
//  - every rank of a communicator must invoke collectives in the same order;
//  - send/recv match on (source, tag); user tags must be < kUserTagLimit;
//  - split() partitions a communicator by color, ordering ranks by key.
//
// An exception thrown on any rank aborts the world: all ranks blocked in
// recv/collectives wake up with AbortedError and the first real exception is
// rethrown from World::run on the calling thread.
//
// docs/ARCHITECTURE.md documents these semantics (ordering, tags, abort) in
// full and explains why the backend is threads rather than real MPI.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "par/buffer.hpp"

namespace dsg::par {

/// Thrown on ranks that are blocked in communication when another rank fails.
class AbortedError : public std::runtime_error {
public:
    AbortedError() : std::runtime_error("communication world aborted") {}
};

/// Largest tag value (exclusive) available to user point-to-point messages.
/// Larger tags are reserved for internal collective traffic.
inline constexpr int kUserTagLimit = 1 << 20;

/// Communication-volume counters shared by a world and all communicators
/// split from it. Byte counts only include data that crosses rank boundaries
/// (rank-local copies are free on a real machine as well, via shared memory).
struct CommStats {
    std::atomic<std::uint64_t> p2p_messages{0};
    std::atomic<std::uint64_t> p2p_bytes{0};
    std::atomic<std::uint64_t> bcast_bytes{0};
    std::atomic<std::uint64_t> alltoall_bytes{0};
    std::atomic<std::uint64_t> reduce_bytes{0};
    std::atomic<std::uint64_t> gather_bytes{0};
    std::atomic<std::uint64_t> barriers{0};
    std::atomic<std::uint64_t> collectives{0};
    std::atomic<std::uint64_t> async_posted{0};     ///< reductions posted
    std::atomic<std::uint64_t> async_completed{0};  ///< reductions waited

    /// Plain-value copy of the counters, for reporting.
    struct Snapshot {
        std::uint64_t p2p_messages, p2p_bytes, bcast_bytes, alltoall_bytes,
            reduce_bytes, gather_bytes, barriers, collectives, async_posted,
            async_completed;
        /// Total bytes moved across rank boundaries.
        [[nodiscard]] std::uint64_t total_bytes() const {
            return p2p_bytes + bcast_bytes + alltoall_bytes + reduce_bytes +
                   gather_bytes;
        }
    };

    [[nodiscard]] Snapshot snapshot() const;
    void reset();
};

namespace detail {
class CommGroup;
}  // namespace detail

/// Communicator handle for one rank. Cheap to copy; all copies refer to the
/// same rank of the same group (as with an MPI_Comm + cached rank).
class Comm {
public:
    Comm() = default;

    [[nodiscard]] int rank() const { return rank_; }
    [[nodiscard]] int size() const;
    [[nodiscard]] bool valid() const { return group_ != nullptr; }

    // -- point-to-point ------------------------------------------------------

    /// Sends msg to rank dst; matched by a recv(src=this rank, tag) on dst.
    void send(int dst, int tag, Buffer msg);
    /// Blocks until a message from src with the given tag arrives.
    Buffer recv(int src, int tag);
    /// Paired exchange with a peer rank (send our buffer, receive theirs).
    /// Safe regardless of ordering; peer == rank() returns msg unchanged.
    Buffer sendrecv(int peer, int tag, Buffer msg);

    // -- posted reduction ----------------------------------------------------
    //
    // Post/wait halves of reduce_merge. Posts count as collectives and must
    // be issued by every rank in the same order (like the blocking forms),
    // but any number may be outstanding, and ranks may interleave local
    // compute between post and wait. wait() must be called exactly once.

    /// In-flight ireduce_merge; wait(merge) yields what
    /// reduce_merge(root, mine, merge) would return. An interior tree node
    /// receives, merges and forwards from inside wait(), so a rank must wait
    /// its reductions on its own thread in post order: waiting a younger one
    /// first can deadlock against a peer that is still inside an older one.
    class PendingReduce {
    public:
        PendingReduce(PendingReduce&&) = default;
        PendingReduce& operator=(PendingReduce&&) = default;
        Buffer wait(const std::function<Buffer(Buffer, Buffer)>& merge);

    private:
        friend class Comm;
        PendingReduce(std::shared_ptr<detail::CommGroup> group, int rank,
                      int root, int tag, int step, Buffer acc)
            : group_(std::move(group)), rank_(rank), root_(root), tag_(tag),
              step_(step), acc_(std::move(acc)) {}
        /// Runs the tree steps from step_ on. Without a merge (the post) it
        /// stops at the first step that needs a receive.
        void advance(const std::function<Buffer(Buffer, Buffer)>* merge);
        std::shared_ptr<detail::CommGroup> group_;
        int rank_, root_, tag_, step_;
        Buffer acc_;
    };

    /// Posts this rank's contribution to a reduce_merge onto root. Runs the
    /// tree steps that need no receive: a leaf forwards its buffer to its
    /// parent before this returns. Everything else — receive, merge,
    /// forward — happens in wait().
    PendingReduce ireduce_merge(int root, Buffer mine);

    // -- collectives (must be called by every rank, in the same order) -------

    void barrier();
    /// Root's buffer is delivered to every rank (root gets its own back).
    Buffer bcast(int root, Buffer msg);
    /// send[i] is delivered to rank i; returns the p buffers received.
    std::vector<Buffer> alltoallv(std::vector<Buffer> send);
    /// Gathers every rank's buffer at root (indexed by rank); other ranks
    /// receive an empty vector.
    std::vector<Buffer> gather(int root, Buffer msg);
    /// Every rank receives every rank's buffer, indexed by rank.
    std::vector<Buffer> allgather(Buffer msg);
    /// Binomial-tree reduction: interior nodes combine their subtree's
    /// buffers with merge(acc, incoming); the fully merged buffer is returned
    /// at root, an empty buffer elsewhere. This is the primitive behind the
    /// paper's custom sparse reduce-scatter (Section VI-A); it is
    /// ireduce_merge(root, mine).wait(merge).
    Buffer reduce_merge(int root, Buffer mine,
                        const std::function<Buffer(Buffer, Buffer)>& merge);

    /// All-reduce of a trivially copyable value with a commutative combine.
    template <typename T, typename Op>
        requires std::is_trivially_copyable_v<T>
    T allreduce(T value, Op op) {
        Buffer msg(sizeof(T));
        std::memcpy(msg.data(), &value, sizeof(T));
        auto all = allgather(std::move(msg));
        T acc;
        std::memcpy(&acc, all[0].data(), sizeof(T));
        for (std::size_t r = 1; r < all.size(); ++r) {
            T other;
            std::memcpy(&other, all[r].data(), sizeof(T));
            acc = op(acc, other);
        }
        return acc;
    }

    /// Element-wise in-place bitwise-or all-reduce over a span of words.
    /// Used for the row-filter vector R of the general algorithm (Sec. V-B).
    void allreduce_or(std::vector<std::uint64_t>& words);

    /// Partitions this communicator: ranks passing the same color form a new
    /// communicator, ordered by (key, old rank).
    Comm split(int color, int key);

    /// Volume counters of the world this communicator belongs to.
    [[nodiscard]] CommStats& stats() const;

private:
    friend class World;
    friend class detail::CommGroup;
    Comm(std::shared_ptr<detail::CommGroup> group, int rank)
        : group_(std::move(group)), rank_(rank) {}

    std::shared_ptr<detail::CommGroup> group_;
    int rank_ = -1;
};

/// Owns a set of ranks running as threads.
class World {
public:
    /// Runs fn(comm) on p ranks. Blocks until all ranks return; if any rank
    /// throws, the world aborts and the first exception is rethrown here.
    static void run(int p, const std::function<void(Comm&)>& fn);
};

/// Convenience wrapper around World::run.
inline void run_world(int p, const std::function<void(Comm&)>& fn) {
    World::run(p, fn);
}

}  // namespace dsg::par
