// Epoch-batched application of streamed updates (the streaming engine's
// consumer side; docs/ARCHITECTURE.md, "The streaming engine").
//
// Concurrent producers push StreamOps into the rank's UpdateQueue; the rank
// thread pumps epochs. An epoch triggers when the local queue buffers
// epoch_batch ops or epoch_deadline elapses, whichever comes first — bursty
// scenarios ride the deadline, sustained load rides the batch size. Each
// epoch then
//   1. drains the local queue (Phase::StreamDrain),
//   2. agrees collectively on the per-kind global op counts and whether
//      every rank's queue is exhausted (one allreduce),
//   3. partitions the drained ops into ADD / MERGE / MASK streams in queue
//      order and applies each globally non-empty stream through
//      core::build_update_matrix + add_update / merge_update / mask_delete
//      (Phase::StreamApply; globally empty streams skip their collective
//      round entirely).
// The apply order within an epoch is fixed (ADDs, then MERGEs, then MASKs);
// ops whose relative order must be preserved therefore belong in the same
// stream or in different epochs.
//
// Readers see a consistent snapshot between epochs: with_snapshot(fn) runs
// fn(core::SnapshotView) under a shared lock that epoch application
// excludes, so any number of reader threads may query concurrently with
// producers pushing — they only ever wait while an epoch is being applied.
//
// Epoch subscribers: set_epoch_hook(fn) registers a callback invoked at
// every *applied* epoch boundary — after the drained ops are applied to the
// matrix and before the reader lock is released — with an EpochDelta holding
// this rank's drained ops partitioned by kind. The hook fires on every rank
// of the same epoch (the trigger is the agreed global op count), so hook
// bodies may issue collectives; src/analytics/ builds on exactly this to
// keep derived values (triangle counts, distances, contractions)
// continuously consistent with the matrix readers observe. Further
// subscriber slots with the same all-ranks-or-none contract exist for the
// durability layer (set_wal_hook / set_checkpoint_hook; src/persist/) and
// for snapshot publication (set_publish_hook; src/serve/ freezes immutable
// serving snapshots here, after analytics so the frozen readouts match the
// frozen tiles).
//
// Every rank of the grid must construct the engine and call run()/pump()
// collectively (the engine issues collectives even for ranks whose queues
// are empty, exactly like any SPMD object in src/core/).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dist_matrix.hpp"
#include "core/update_ops.hpp"
#include "obs/metrics.hpp"
#include "par/profiler.hpp"
#include "stream/update_queue.hpp"

namespace dsg::stream {

struct EngineConfig {
    std::size_t queue_capacity = std::size_t{1} << 15;
    /// Epoch trigger: ops buffered locally...
    std::size_t epoch_batch = 4096;
    /// ...or time elapsed since the previous epoch, whichever comes first.
    std::chrono::milliseconds epoch_deadline{20};
    core::RedistMode redist = core::RedistMode::TwoPhase;
    /// When true the WAL hook runs on a background thread that is joined
    /// before the NEXT epoch's write-ahead point, so the log write of epoch
    /// N overlaps N's apply and N+1's drain. This trades the strict
    /// WAL-before-apply ordering for throughput: a crash may lose the redo
    /// record of the single in-flight epoch (recovery still restores a
    /// consistent prefix). Requires a rank-local WAL hook (no collectives);
    /// default off preserves the kill -9 redo guarantee bench_recovery and
    /// the recovery tests assert.
    bool overlap_persist = false;
    par::ThreadPool* pool = nullptr;  ///< intra-rank threads for apply
    /// Per-epoch log entries kept (the aggregate totals are always exact).
    std::size_t max_epoch_log = std::size_t{1} << 16;
    /// Version the engine starts counting epochs from. 0 for a fresh run;
    /// recovery (src/persist/) sets it to the restored checkpoint's version
    /// so replayed and post-restart epochs continue the original numbering.
    std::uint64_t initial_version = 0;
};

/// What ONE rank contributed to one applied epoch, as handed to the epoch
/// hook: the drained local ops partitioned by kind, queue order preserved
/// within each list (the order the engine applied them in, ADDs before
/// MERGEs before MASKs). Tuples are in global coordinates; lists may be
/// empty on ranks that drained nothing while another rank's ops triggered
/// the epoch.
template <typename T>
struct EpochDelta {
    std::uint64_t version = 0;    ///< engine version after this epoch's apply
    std::uint64_t global_ops = 0; ///< ops applied across all ranks this epoch
    std::vector<sparse::Triple<T>> adds;
    std::vector<sparse::Triple<T>> merges;
    std::vector<sparse::Triple<T>> masks;
};

/// Per-epoch measurements of ONE rank.
struct EpochStats {
    std::uint64_t epoch = 0;       ///< epoch index (counts empty epochs too)
    std::size_t drained = 0;       ///< ops drained locally this epoch
    std::size_t adds = 0, merges = 0, masks = 0;
    std::uint64_t global_ops = 0;  ///< drained summed over all ranks
    double drain_ms = 0;           ///< trigger wait + queue drain
    double apply_ms = 0;           ///< A* builds + local application
    double hook_ms = 0;            ///< epoch hook (analytics maintainers)
    double publish_ms = 0;         ///< snapshot publication (src/serve/)
    double persist_ms = 0;         ///< WAL append + checkpoint (src/persist/)
    std::size_t backlog_after = 0; ///< ops already buffered for the next epoch
};

/// Aggregate totals of one rank's engine across a run.
struct StreamStats {
    std::uint64_t epochs = 0;          ///< pump() calls
    std::uint64_t applied_epochs = 0;  ///< epochs with global_ops > 0
    std::uint64_t local_ops = 0;
    std::uint64_t adds = 0, merges = 0, masks = 0;
    double drain_ms = 0;
    double apply_ms = 0;
    double hook_ms = 0;          ///< total epoch-hook time (0 without a hook)
    double publish_ms = 0;       ///< total snapshot-publication time (serve)
    double persist_ms = 0;       ///< total WAL + checkpoint time (0 without)
    double max_hook_ms = 0;      ///< slowest single hook invocation
    double max_epoch_ms = 0;     ///< slowest epoch (drain + apply + hook
                                 ///< + publish + persist)
    std::size_t max_backlog = 0; ///< worst backlog left behind by an epoch
    double run_seconds = 0;      ///< wall time of run() (0 if pumped manually)

    void record(const EpochStats& e);
    /// Locally drained ops per second of run() wall time (0 without run()).
    [[nodiscard]] double ops_per_second() const;
    /// One human-readable summary line.
    [[nodiscard]] std::string summary() const;
};

template <sparse::Semiring SR>
class EpochEngine {
public:
    using T = typename SR::value_type;
    using Clock = std::chrono::steady_clock;

    explicit EpochEngine(core::DistDynamicMatrix<T>& A, EngineConfig cfg = {})
        : A_(&A),
          cfg_(cfg),
          queue_(cfg.queue_capacity),
          version_(cfg.initial_version) {
        // Registry instruments, fetched once here so pump() never takes the
        // registry lock. Latency histograms and op counters merge across
        // ranks (epochs are collective, so the distributions are symmetric);
        // point-in-time values (queue depth, backlog, blocked time) are
        // per-rank labeled so ranks don't overwrite each other.
        auto& reg = obs::registry();
        const obs::Labels rank_label = {
            {"rank", std::to_string(A.shape().grid().world().rank())}};
        obs_drain_ns_ = &reg.histogram("stream_epoch_drain_ns");
        obs_apply_ns_ = &reg.histogram("stream_epoch_apply_ns");
        obs_hook_ns_ = &reg.histogram("stream_epoch_hook_ns");
        obs_publish_ns_ = &reg.histogram("stream_epoch_publish_ns");
        obs_persist_ns_ = &reg.histogram("stream_epoch_persist_ns");
        obs_adds_ = &reg.counter("stream_ops_adds");
        obs_merges_ = &reg.counter("stream_ops_merges");
        obs_masks_ = &reg.counter("stream_ops_masks");
        obs_epochs_ = &reg.counter("stream_epochs_total");
        obs_applied_ = &reg.counter("stream_epochs_applied");
        obs_backlog_ = &reg.gauge("stream_backlog", rank_label);
        queue_.set_instruments(
            {&reg.gauge("stream_queue_depth", rank_label),
             &reg.counter("stream_queue_blocked_ns", rank_label)});
    }

    EpochEngine(const EpochEngine&) = delete;
    EpochEngine& operator=(const EpochEngine&) = delete;
    ~EpochEngine() { join_wal_worker(); }

    [[nodiscard]] UpdateQueue<T>& queue() { return queue_; }
    [[nodiscard]] const EngineConfig& config() const { return cfg_; }

    /// Called at every applied epoch boundary, after apply and before the
    /// reader lock is released, with this rank's drained ops.
    using EpochHook = std::function<void(const EpochDelta<T>&)>;

    /// Subscribes to epoch boundaries. Must be set before pumping starts,
    /// and — because the hook fires on every rank of an applied epoch — on
    /// either all ranks of the grid or none, with hooks that agree on the
    /// collectives they issue (analytics::AnalyticsHub::attach satisfies
    /// this by construction).
    void set_epoch_hook(EpochHook hook) { hook_ = std::move(hook); }

    /// Write-ahead subscriber: called on every rank of an applied epoch
    /// BEFORE any of the epoch's ops touch the matrix, with the same
    /// EpochDelta the epoch hook will see (delta.version is the version the
    /// epoch is about to produce). The durability layer (src/persist/)
    /// appends the delta to the rank's op log here, so a crash between log
    /// write and apply replays the epoch instead of losing it (redo
    /// semantics). Same all-ranks-or-none rule as set_epoch_hook.
    void set_wal_hook(EpochHook hook) { wal_hook_ = std::move(hook); }

    /// Called after the epoch hook (still under the writer lock, so the
    /// matrix and any epoch-subscribed maintainers are quiescent and
    /// mutually consistent) with the epoch's version — the point where the
    /// durability layer takes its epoch-consistent checkpoints. Fires on
    /// every rank of the same epochs, so hook bodies may issue collectives.
    using CheckpointHook = std::function<void(std::uint64_t version)>;
    void set_checkpoint_hook(CheckpointHook hook) {
        checkpoint_hook_ = std::move(hook);
    }

    /// Snapshot-publication subscriber (src/serve/): called with the same
    /// semantics as the checkpoint hook — after the epoch hook, under the
    /// writer lock, on every rank of an applied epoch — but BEFORE the
    /// checkpoint hook, so a published serving snapshot never reflects
    /// state newer than what durability could replay to. The serving layer
    /// freezes its immutable tile + readout snapshots here; the subscriber
    /// decides its own cadence (cheap early-out on off-cycle versions).
    using PublishHook = std::function<void(std::uint64_t version)>;
    void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

    /// Multi-subscriber epoch observers: appended (never replaced), invoked
    /// LAST among the applied-epoch subscribers — after the checkpoint hook,
    /// on every rank of the same epochs — so observers see the fully
    /// published + persisted state. Same all-ranks-or-none contract as the
    /// other hooks: observer bodies may issue collectives (the live
    /// introspection plane federates per-rank metric snapshots here,
    /// obs/federate.hpp). Register before the collective loop starts.
    void add_epoch_observer(PublishHook observer) {
        epoch_observers_.push_back(std::move(observer));
    }

    /// Runs one epoch (collective). Returns false once every rank's queue is
    /// exhausted — the caller may stop pumping.
    bool pump() {
        const auto t0 = Clock::now();
        EpochStats e;
        e.epoch = stats_.epochs;

        scratch_.clear();
        {
            par::Profiler::Scope scope(par::Phase::StreamDrain);
            queue_.wait_ready(cfg_.epoch_batch, cfg_.epoch_deadline);
            e.drained = queue_.drain(scratch_);
        }
        e.drain_ms = ms_since(t0);

        // Partition into the three update streams, preserving queue order
        // within each stream.
        adds_.clear();
        merges_.clear();
        masks_.clear();
        for (const auto& op : scratch_) {
            switch (op.kind) {
                case OpKind::Add: adds_.push_back(op.tuple); break;
                case OpKind::Merge: merges_.push_back(op.tuple); break;
                case OpKind::Mask: masks_.push_back(op.tuple); break;
            }
        }
        e.adds = adds_.size();
        e.merges = merges_.size();
        e.masks = masks_.size();

        // One collective agreement: per-kind global op counts and global
        // exhaustion. The counts also decide, identically on every rank,
        // which of the three collective apply rounds can be skipped this
        // epoch (ADD-only traffic pays one round, not three). exhausted()
        // is evaluated after the drain, so a true verdict is final (a
        // closed queue accepts no further pushes).
        struct Sync {
            std::uint64_t adds, merges, masks;
            std::uint8_t done;
        };
        auto& world = A_->shape().grid().world();
        const Sync g = world.allreduce(
            Sync{adds_.size(), merges_.size(), masks_.size(),
                 queue_.exhausted() ? std::uint8_t{1} : std::uint8_t{0}},
            [](Sync a, Sync b) {
                return Sync{a.adds + b.adds, a.merges + b.merges,
                            a.masks + b.masks,
                            static_cast<std::uint8_t>(a.done & b.done)};
            });
        e.global_ops = g.adds + g.merges + g.masks;

        if (e.global_ops > 0) {
            // Trace spans emitted while this epoch is applied (apply, hooks,
            // publish, checkpoint) carry the version the epoch produces.
            par::Profiler::set_thread_epoch(
                static_cast<std::int64_t>(version_ + 1));
            auto t1 = Clock::now();
            std::unique_lock lock(snapshot_mx_);
            // The applies below consume the partitioned streams, so the
            // hooks' delta is captured first. With an epoch hook the lists
            // are copied (the hook reads them after apply consumed the
            // originals); with ONLY a WAL hook they are moved through the
            // delta and moved back out by the applies — zero copies, which
            // keeps the durable-ingest overhead bench_recovery gates low.
            EpochDelta<T> delta;
            // The move-through-the-delta fast path needs the lists dead
            // after apply; the overlapped WAL worker instead keeps its own
            // copy of the delta alive past this pump call.
            const bool wal_only = wal_hook_ && !hook_ && !cfg_.overlap_persist;
            if (hook_ || wal_hook_) {
                delta.version = version_ + 1;
                delta.global_ops = e.global_ops;
                if (wal_only) {
                    delta.adds = std::move(adds_);
                    delta.merges = std::move(merges_);
                    delta.masks = std::move(masks_);
                } else {
                    delta.adds = adds_;
                    delta.merges = merges_;
                    delta.masks = masks_;
                }
            }
            auto& apply_adds = wal_only ? delta.adds : adds_;
            auto& apply_merges = wal_only ? delta.merges : merges_;
            auto& apply_masks = wal_only ? delta.masks : masks_;
            if (wal_hook_) {
                const auto tw = Clock::now();
                // Any WAL write still in flight from the previous epoch must
                // land before this epoch's write-ahead point (keeps the log
                // in epoch order and bounds the loss window to one epoch).
                join_wal_worker();
                if (cfg_.overlap_persist) {
                    // The write itself proceeds under this epoch's apply and
                    // the next epoch's drain; on crash the in-flight record
                    // may be missing, hence the default-off documentation in
                    // EngineConfig.
                    auto d = std::make_shared<EpochDelta<T>>(delta);
                    wal_worker_ = std::thread(
                        [hook = &wal_hook_, d] { (*hook)(*d); });
                } else {
                    // Write-ahead: the epoch is logged (buffered; durability
                    // follows the subscriber's fsync cadence) before any of
                    // its ops become visible, so replay can redo exactly
                    // what readers may have observed minus a clean suffix.
                    wal_hook_(delta);
                }
                e.persist_ms += ms_since(tw);
                t1 = Clock::now();  // keep WAL time out of apply_ms
            }
            {
                par::Profiler::Scope scope(par::Phase::StreamApply);
                auto& grid = A_->shape().grid();
                const index_t nr = A_->shape().nrows();
                const index_t nc = A_->shape().ncols();
                if (g.adds > 0) {
                    auto ua = core::build_update_matrix(
                        grid, nr, nc, std::move(apply_adds), cfg_.redist);
                    core::add_update<SR>(*A_, ua, cfg_.pool);
                }
                if (g.merges > 0) {
                    auto um = core::build_update_matrix(
                        grid, nr, nc, std::move(apply_merges), cfg_.redist);
                    core::merge_update(*A_, um, cfg_.pool);
                }
                if (g.masks > 0) {
                    auto ud = core::build_update_matrix(
                        grid, nr, nc, std::move(apply_masks), cfg_.redist);
                    core::mask_delete(*A_, ud, cfg_.pool);
                }
                ++version_;
            }
            e.apply_ms = ms_since(t1);
            if (hook_) {
                const auto t2 = Clock::now();
                par::Profiler::Scope scope(par::Phase::Analytics);
                hook_(delta);
                e.hook_ms = ms_since(t2);
            }
            if (publish_hook_) {
                // The subscriber brackets its own Phase::ServePublish (it
                // also publishes outside the engine, at attach/recovery).
                const auto tp = Clock::now();
                publish_hook_(version_);
                e.publish_ms = ms_since(tp);
            }
            if (checkpoint_hook_) {
                const auto t3 = Clock::now();
                // A checkpoint reads/truncates the op log, so the epoch's
                // own WAL record must have landed first.
                join_wal_worker();
                checkpoint_hook_(version_);
                e.persist_ms += ms_since(t3);
            }
            for (const PublishHook& observer : epoch_observers_)
                observer(version_);
        }

        e.backlog_after = queue_.size();
        obs_epochs_->add(1);
        if (e.global_ops > 0) {
            obs_applied_->add(1);
            obs_adds_->add(e.adds);
            obs_merges_->add(e.merges);
            obs_masks_->add(e.masks);
            obs_drain_ns_->record_ms(e.drain_ms);
            obs_apply_ns_->record_ms(e.apply_ms);
            if (hook_) obs_hook_ns_->record_ms(e.hook_ms);
            if (publish_hook_) obs_publish_ns_->record_ms(e.publish_ms);
            if (wal_hook_ || checkpoint_hook_)
                obs_persist_ns_->record_ms(e.persist_ms);
        }
        obs_backlog_->set(static_cast<std::int64_t>(e.backlog_after));
        stats_.record(e);
        if (epoch_log_.size() < cfg_.max_epoch_log) epoch_log_.push_back(e);
        // Quiesce the overlapped WAL write before reporting exhaustion, so
        // a caller that stops pumping observes a complete log.
        if (g.done != 0) join_wal_worker();
        return g.done == 0;
    }

    /// Pumps until every rank's queue is exhausted (collective); records the
    /// run's wall time in stats().run_seconds.
    void run() {
        const auto t0 = Clock::now();
        while (pump()) {
        }
        stats_.run_seconds += ms_since(t0) * 1e-3;
    }

    /// Runs fn(core::SnapshotView<T>) under the reader lock: safe from any
    /// thread, any time — it waits only while an epoch is being applied.
    template <typename Fn>
    auto with_snapshot(Fn&& fn) const {
        std::shared_lock lock(snapshot_mx_);
        return fn(core::SnapshotView<T>(*A_, version_));
    }

    [[nodiscard]] const StreamStats& stats() const { return stats_; }
    /// Per-epoch log (capped at config().max_epoch_log entries).
    [[nodiscard]] const std::vector<EpochStats>& epoch_log() const {
        return epoch_log_;
    }

private:
    using index_t = sparse::index_t;

    static double ms_since(Clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    }

    void join_wal_worker() {
        if (wal_worker_.joinable()) wal_worker_.join();
    }

    core::DistDynamicMatrix<T>* A_;
    EngineConfig cfg_;
    UpdateQueue<T> queue_;
    EpochHook hook_;
    EpochHook wal_hook_;
    std::thread wal_worker_;  // in-flight overlapped WAL write, if any
    CheckpointHook checkpoint_hook_;
    PublishHook publish_hook_;
    std::vector<PublishHook> epoch_observers_;

    mutable std::shared_mutex snapshot_mx_;
    std::uint64_t version_ = 0;  // written under unique snapshot_mx_

    std::vector<StreamOp<T>> scratch_;
    std::vector<sparse::Triple<T>> adds_, merges_, masks_;
    StreamStats stats_;
    std::vector<EpochStats> epoch_log_;

    // Registry instruments (fetched once in the ctor; see there).
    obs::Histogram* obs_drain_ns_ = nullptr;
    obs::Histogram* obs_apply_ns_ = nullptr;
    obs::Histogram* obs_hook_ns_ = nullptr;
    obs::Histogram* obs_publish_ns_ = nullptr;
    obs::Histogram* obs_persist_ns_ = nullptr;
    obs::Counter* obs_adds_ = nullptr;
    obs::Counter* obs_merges_ = nullptr;
    obs::Counter* obs_masks_ = nullptr;
    obs::Counter* obs_epochs_ = nullptr;
    obs::Counter* obs_applied_ = nullptr;
    obs::Gauge* obs_backlog_ = nullptr;
};

}  // namespace dsg::stream
