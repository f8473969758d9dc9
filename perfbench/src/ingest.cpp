// ingest-triangles (EpochEngine + LiveTriangleMaintainer on a 1x2 grid) and
// ingest-serve (EpochEngine + DurabilityManager + SnapshotStore/QueryExecutor
// on a 1x2 grid, with an open-loop query generator beside the ingest).
//
// Epoch boundaries are pinned: each rank pushes exactly kEpochOps ops of the
// analytics-read write stream and then calls pump(), so the work of every
// epoch is fixed by the seed. ingest-triangles runs epochs back to back;
// ingest-serve runs them in paced bursts (kEpochPacing).
#include <sys/prctl.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "analytics/maintainer.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "persist/durability.hpp"
#include "persist/recovery.hpp"
#include "serve/query_executor.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dsg::core::DistDynamicMatrix;
using dsg::core::ProcessGrid;
using dsg::par::Comm;
using dsg::sparse::index_t;
using dsg::sparse::Triple;
using SR = dsg::sparse::PlusTimes<double>;
using Engine = dsg::stream::EpochEngine<SR>;
using Op = dsg::stream::StreamOp<double>;

constexpr int kScale = 12;  // n = 4096
constexpr std::size_t kEpochOps = 512;  // per rank

/// The sizes and grid of one ingest workload.
struct IngestShape {
    int rows, cols;
    index_t n;
    std::size_t seed_edges;  ///< R-MAT edges ingested during set-up
    std::size_t epoch_ops;   ///< ops each rank pushes per epoch
    [[nodiscard]] int ranks() const { return rows * cols; }
};

IngestShape ingest_shape(const Options& opt, int rows, int cols) {
    return opt.tiny ? IngestShape{rows, cols, index_t{1} << 9, 2'000, 64}
                    : IngestShape{rows, cols, index_t{1} << kScale, 20'000, kEpochOps};
}

dsg::stream::EngineConfig engine_config(const IngestShape& shape) {
    dsg::stream::EngineConfig cfg;
    cfg.epoch_batch = shape.epoch_ops;
    // A partial last set-up chunk closes its epoch on this deadline; timed
    // epochs always hold epoch_ops ops and never wait on it.
    cfg.epoch_deadline = std::chrono::milliseconds(1);
    cfg.max_epoch_log = 0;
    return cfg;
}

/// This rank's op source: the analytics-read scenario's write stream (ADDs
/// of weighted random edges, MASKs of the oldest once a window is full),
/// reads off.
dsg::stream::WorkloadProducer op_source(const IngestShape& shape,
                                        std::uint64_t seed, int rank) {
    dsg::stream::WorkloadConfig wl;
    wl.scenario = dsg::stream::Scenario::AnalyticsRead;
    wl.n = shape.n;
    wl.writes = std::size_t{1} << 40;
    wl.window = 256;
    wl.read_fraction = 0.0;
    wl.seed = seed * 1000003 + static_cast<std::uint64_t>(rank) + 101;
    return dsg::stream::WorkloadProducer(wl, 0);
}

void next_ops(dsg::stream::WorkloadProducer& src, std::size_t count,
              std::vector<Op>& out) {
    out.clear();
    while (out.size() < count) {
        const auto ev = src.next();
        if (!ev) throw std::runtime_error("op stream exhausted");
        if (ev->type == dsg::stream::Event::Type::Write) out.push_back(ev->op);
    }
}

/// Pushes `ops`; returns how many the queue refused.
std::uint64_t push_all(Engine& engine, const std::vector<Op>& ops) {
    std::uint64_t refused = 0;
    for (const auto& op : ops)
        if (!engine.queue().push(op)) ++refused;
    return refused;
}

/// Set-up ingest: this rank's share of an R-MAT graph, pushed through the
/// engine in epoch-sized chunks (collective; every rank pumps the same
/// number of epochs).
std::uint64_t seed_graph(Engine& engine, const IngestShape& shape,
                         std::uint64_t seed, int rank) {
    auto edges = dsg::graph::rmat_edges(
        kScale, shape.seed_edges / static_cast<std::size_t>(shape.ranks()),
        seed * 7 + static_cast<std::uint64_t>(rank));
    dsg::sparse::IndexPermutation perm(index_t{1} << kScale, seed * 13 + 3);
    perm.apply(edges);
    std::uint64_t refused = 0;
    std::vector<Op> chunk;
    for (std::size_t at = 0; at < edges.size(); at += shape.epoch_ops) {
        chunk.clear();
        for (std::size_t k = at; k < std::min(edges.size(), at + shape.epoch_ops); ++k) {
            Triple<double> e = edges[k];
            e.row %= shape.n;
            e.col %= shape.n;
            chunk.push_back({dsg::stream::OpKind::Add, e});
        }
        refused += push_all(engine, chunk);
        engine.pump();
    }
    return refused;
}

/// Per-rank engine-stat deltas over traced epochs.
struct EngineTotals {
    double drain = 0, apply = 0, hook = 0, publish = 0, persist = 0;
    std::uint64_t wal_bytes = 0, checkpoints = 0, checkpoint_bytes = 0;
};

/// Everything the rank threads of one ingest run hand to the main thread.
struct IngestRun {
    explicit IngestRun(int ranks)
        : spans(static_cast<std::size_t>(ranks)),
          engine(static_cast<std::size_t>(ranks)) {}
    std::vector<double> setup_s;
    std::vector<SpanTotals> spans;
    std::vector<EngineTotals> engine;
    CommTotals comm;
    std::atomic<std::uint64_t> refused{0};
    std::uint64_t checks = 0, check_failures = 0;
    double recount_ms = 0;
    // Registry histogram deltas (count, sum ns) over traced epochs.
    std::uint64_t append_n = 0, append_ns = 0, fsync_n = 0, fsync_ns = 0,
                  ckpt_n = 0, ckpt_ns = 0;
};

/// The durability layer's registry-histogram deltas over traced epochs,
/// kept by rank 0. Only traced runs read them: a read copies every bucket.
class PersistHistograms {
public:
    PersistHistograms() {
        auto& reg = dsg::obs::registry();
        append_ = &reg.histogram("persist_wal_append_ns");
        fsync_ = &reg.histogram("persist_wal_fsync_ns");
        ckpt_ = &reg.histogram("persist_checkpoint_ns");
        last_ = read();
    }
    void step(IngestRun& run, bool traced) {
        const Hist now = read();
        if (traced) accumulate(run, now);
        last_ = now;
    }

private:
    struct CountSum {
        std::uint64_t count = 0, sum = 0;
    };
    struct Hist {
        CountSum append, fsync, ckpt;
    };
    void accumulate(IngestRun& run, const Hist& now) const {
        run.append_n += now.append.count - last_.append.count;
        run.append_ns += now.append.sum - last_.append.sum;
        run.fsync_n += now.fsync.count - last_.fsync.count;
        run.fsync_ns += now.fsync.sum - last_.fsync.sum;
        run.ckpt_n += now.ckpt.count - last_.ckpt.count;
        run.ckpt_ns += now.ckpt.sum - last_.ckpt.sum;
    }
    [[nodiscard]] Hist read() const {
        auto one = [](const dsg::obs::Histogram* h) {
            const auto r = h->read();
            return CountSum{r.count, r.sum};
        };
        return {one(append_), one(fsync_), one(ckpt_)};
    }
    dsg::obs::Histogram* append_ = nullptr;
    dsg::obs::Histogram* fsync_ = nullptr;
    dsg::obs::Histogram* ckpt_ = nullptr;
    Hist last_{};
};

/// The pinned epoch loop shared by both ingest workloads (collective).
/// `persist` returns this rank's PersistStats, or nullptr without one.
template <typename PersistOf>
void run_epochs(Comm& comm, Stepper& stepper, IngestRun& run, Engine& engine,
                dsg::stream::WorkloadProducer& src, const IngestShape& shape,
                PersistHistograms* hists, PersistOf&& persist) {
    const int r = comm.rank();
    auto& spans = run.spans[static_cast<std::size_t>(r)];
    auto& totals = run.engine[static_cast<std::size_t>(r)];
    std::vector<Op> ops;
    next_ops(src, shape.epoch_ops, ops);
    auto snap = [&] {
        const auto& s = engine.stats();
        EngineTotals t{s.drain_ms, s.apply_ms, s.hook_ms, s.publish_ms, s.persist_ms,
                       0, 0, 0};
        if (const auto* p = persist()) {
            t.wal_bytes = p->bytes_logged;
            t.checkpoints = p->checkpoints;
            t.checkpoint_bytes = p->checkpoint_bytes;
        }
        return t;
    };
    EngineTotals last = snap();
    if (r == 0) run.comm.start(comm.stats().snapshot());
    stepper.run(
        comm,
        [&](bool traced) {
            double busy = 0;
            {
                Span s(spans, "stream.push_ms", traced, busy);
                run.refused += push_all(engine, ops);
            }
            {
                Span s(spans, "stream.pump_ms", traced, busy);
                engine.pump();
            }
            return busy;
        },
        [&](bool traced) {
            const EngineTotals now = snap();
            if (traced) {
                totals.drain += now.drain - last.drain;
                totals.apply += now.apply - last.apply;
                totals.hook += now.hook - last.hook;
                totals.publish += now.publish - last.publish;
                totals.persist += now.persist - last.persist;
                totals.wal_bytes += now.wal_bytes - last.wal_bytes;
                totals.checkpoints += now.checkpoints - last.checkpoints;
                totals.checkpoint_bytes += now.checkpoint_bytes - last.checkpoint_bytes;
            }
            last = now;
            next_ops(src, shape.epoch_ops, ops);
        },
        [&](bool traced) {
            run.comm.step(comm.stats().snapshot(), traced);
            if (hists != nullptr) hists->step(run, traced);
        });
}

/// The metrics both ingest workloads share.
Outcome finish_ingest(const IngestRun& run, const Stepper& stepper,
                      const IngestShape& shape, Layers layers, bool oversub) {
    Outcome out;
    const double ops_per_step = static_cast<double>(shape.epoch_ops) * shape.ranks();
    report_loop(out, layers, stepper, run.comm, run.setup_s, ops_per_step,
                shape.ranks(), oversub);

    const double traced = static_cast<double>(stepper.traced_steps());
    EngineTotals sum;
    double push = 0, pump = 0;
    for (int r = 0; r < shape.ranks(); ++r) {
        const auto& t = run.engine[static_cast<std::size_t>(r)];
        sum.drain += t.drain;
        sum.apply += t.apply;
        sum.hook += t.hook;
        sum.publish += t.publish;
        sum.persist += t.persist;
        sum.wal_bytes += t.wal_bytes;
        sum.checkpoints += t.checkpoints;
        sum.checkpoint_bytes += t.checkpoint_bytes;
        push += run.spans[static_cast<std::size_t>(r)].get("stream.push_ms");
        pump += run.spans[static_cast<std::size_t>(r)].get("stream.pump_ms");
    }
    auto per = [&](double v) { return safe_div(v, traced * shape.ranks()); };
    // push + pump + the closing-barrier wait make the step; the engine's
    // phases make pump, and stream.pump_self_ms is what they leave out.
    const double pump_children = sum.drain + sum.apply + sum.hook + sum.publish + sum.persist;
    layers["step.residual_ms"] = layers["step.wall_ms"] - per(push) - per(pump);
    layers["stream.push_ms"] = per(push);
    layers["stream.drain_ms"] = per(sum.drain);
    layers["stream.apply_ms"] = per(sum.apply);
    layers["stream.pump_self_ms"] = per(pump - pump_children);
    layers["analytics.hook_ms"] = per(sum.hook);
    layers["analytics.hook_share"] = safe_div(sum.hook, pump_children);
    layers["serve.publish_ms"] = per(sum.publish);
    layers["persist.epoch_ms"] = per(sum.persist);
    layers["persist.wal_append_us"] =
        safe_div(static_cast<double>(run.append_ns) * 1e-3, static_cast<double>(run.append_n));
    layers["persist.fsync_ms"] =
        safe_div(static_cast<double>(run.fsync_ns) * 1e-6, static_cast<double>(run.fsync_n));
    layers["persist.checkpoint_ms"] =
        safe_div(static_cast<double>(run.ckpt_ns) * 1e-6, static_cast<double>(run.ckpt_n));
    layers["persist.wal_bytes_per_op"] =
        safe_div(static_cast<double>(sum.wal_bytes), traced * ops_per_step);
    // Checkpoints are collective: every rank writes its tile at the same
    // versions, so bytes per checkpoint sum over ranks.
    layers["persist.checkpoint_bytes"] =
        safe_div(static_cast<double>(sum.checkpoint_bytes),
                 safe_div(static_cast<double>(sum.checkpoints), shape.ranks()));

    const auto ops = static_cast<std::uint64_t>(
        static_cast<double>(stepper.steps().size()) * ops_per_step);
    report_checks(out, layers, ops + run.checks, run.refused.load() + run.check_failures,
                  run.check_failures == 0 && run.checks > 0);
    return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ingest-triangles
// ---------------------------------------------------------------------------

Outcome run_ingest_triangles(const Options& opt) {
    // 1x2, not 2x2: with a rank on every core, the hook's ~170 collectives
    // per epoch felt every stall of the host (p90 IQR over ten runs 0.27 on
    // 2x2, 0.08 and 0.20 on 1x2); two ranks leave cores free.
    const IngestShape shape = ingest_shape(opt, 1, 2);
    const bool oversub = oversubscribed(shape.ranks());
    IngestRun run(shape.ranks());
    Stepper stepper(shape.ranks(), opt.seconds, opt.trace);

    struct State {
        State(ProcessGrid& grid, const IngestShape& shape)
            : A(grid, shape.n, shape.n), engine(A, engine_config(shape)) {
            hub.emplace<dsg::analytics::LiveTriangleMaintainer>(grid, shape.n);
            hub.attach(engine);
        }
        DistDynamicMatrix<double> A;
        Engine engine;
        dsg::analytics::AnalyticsHub<double> hub;
    };

    dsg::par::run_world(shape.ranks(), [&](Comm& comm) {
        ProcessGrid grid(comm, shape.rows, shape.cols);
        const int r = comm.rank();
        std::optional<State> st;
        timed_setups(
            comm, run.setup_s, [&] { st.reset(); },
            [&] {
                st.emplace(grid, shape);
                run.refused += seed_graph(st->engine, shape, opt.seed, r);
            });
        auto src = op_source(shape, opt.seed, r);
        run_epochs(comm, stepper, run, st->engine, src, shape, nullptr,
                   [] { return static_cast<const dsg::persist::PersistStats*>(nullptr); });

        // The maintained count must equal a from-scratch count of the
        // maintainer's own adjacency.
        const auto& tri =
            static_cast<const dsg::analytics::LiveTriangleMaintainer&>(st->hub[0]);
        comm.barrier();
        const auto t0 = Clock::now();
        const double recount = dsg::graph::triangle_count(tri.counter().adjacency());
        comm.barrier();
        if (r == 0) {
            run.recount_ms = ms_since(t0);
            run.checks = 1;
            run.check_failures = tri.snapshot() == recount ? 0 : 1;
        }
    });

    Layers layers;
    layers["graph.triangle_recount_ms"] = run.recount_ms;
    return finish_ingest(run, stepper, shape, std::move(layers), oversub);
}

// ---------------------------------------------------------------------------
// ingest-serve
// ---------------------------------------------------------------------------

namespace {

constexpr double kTargetQps = 2000;
// Epochs arrive in bursts of 64 (one checkpoint stride, four fsyncs) every
// 128 ms: 500 epochs/s on average. Back to back, the WAL and checkpoints
// wrote ~100 MB/s to the disk, whose stalls then set the epoch times; paced,
// it is ~15 MB/s. Within a burst epochs run back to back, as unpaced.
constexpr Pacing kEpochPacing{64, std::chrono::milliseconds(128)};
constexpr std::size_t kSampleQueries = 300;

/// The k-th query of the rotation edge-exists, degree, 2-hop k-hop; keys
/// are pseudo-random in the seed.
dsg::serve::Query make_query(std::uint64_t seed, std::uint64_t k, index_t n) {
    std::uint64_t x = (seed + 1) * 0x9e3779b97f4a7c15ull + k * 6364136223846793005ull;
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 32;
    const auto row = static_cast<index_t>(x % static_cast<std::uint64_t>(n));
    const auto col = static_cast<index_t>((x >> 20) % static_cast<std::uint64_t>(n));
    using dsg::serve::QueryKind;
    switch (k % 3) {
        case 0: return {QueryKind::EdgeExists, row, col, 1, ""};
        case 1: return {QueryKind::Degree, row, 0, 1, ""};
        default: return {QueryKind::KHop, row, 0, 2, ""};
    }
}

/// What the open-loop generator observed.
struct LoadResult {
    std::vector<double> on_arrival_ms;  ///< scheduled send -> completion
    std::vector<double> exec_us;        ///< QueryResult::latency_us
    std::vector<double> lateness_ms;    ///< scheduled send -> actual submit
    std::uint64_t issued = 0, shed = 0, expired = 0, not_ok = 0, cache_hits = 0;
    double duration_s = 0;
};

/// Open loop: query k is due at t0 + k / kTargetQps whatever happened to
/// earlier ones, and is timed from when it was due. The thread's timer slack
/// is 1 ns so its own wake-ups stay out of the measured latency.
void generate(std::stop_token stop, dsg::serve::QueryExecutor<double>& ex,
              std::uint64_t seed, index_t n, LoadResult& out) {
    // The default 50 us slack would land in every wake-up of the schedule.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    struct InFlight {
        std::future<dsg::serve::QueryResult> result;
        double lateness_ms;
    };
    std::deque<InFlight> inflight;
    auto account = [&](InFlight& f) {
        const auto r = f.result.get();
        switch (r.status) {
            case dsg::serve::QueryStatus::Shed: ++out.shed; return;
            case dsg::serve::QueryStatus::Expired: ++out.expired; return;
            case dsg::serve::QueryStatus::Ok: break;
            default: ++out.not_ok; break;
        }
        if (r.cache_hit) ++out.cache_hits;
        out.exec_us.push_back(r.latency_us);
        out.on_arrival_ms.push_back(f.lateness_ms + r.latency_us * 1e-3);
    };
    const auto gap = std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / kTargetQps));
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; !stop.stop_requested(); ++k) {
        const auto due = t0 + gap * static_cast<std::int64_t>(k);
        std::this_thread::sleep_until(due);
        if (stop.stop_requested()) break;
        auto q = make_query(seed, k, n);
        const double late = std::max(0.0, ms_since(due));
        out.lateness_ms.push_back(late);
        inflight.push_back({ex.submit(std::move(q)), late});
        ++out.issued;
        while (!inflight.empty() && inflight.front().result.wait_for(
                                        std::chrono::seconds(0)) == std::future_status::ready) {
            account(inflight.front());
            inflight.pop_front();
        }
    }
    out.duration_s = ms_since(t0) * 1e-3;
    for (auto& f : inflight) account(f);
}

/// Brute-force answer of `q` over the global entry list.
double brute_force(const dsg::serve::Query& q,
                   const std::unordered_map<index_t, std::vector<index_t>>& rows) {
    const auto it = rows.find(q.row);
    static const std::vector<index_t> kNone;
    const auto& out = it == rows.end() ? kNone : it->second;
    switch (q.kind) {
        case dsg::serve::QueryKind::EdgeExists:
            return std::find(out.begin(), out.end(), q.col) != out.end() ? 1.0 : 0.0;
        case dsg::serve::QueryKind::Degree: return static_cast<double>(out.size());
        default: {
            std::unordered_set<index_t> seen{q.row};
            std::vector<index_t> frontier{q.row};
            for (int h = 0; h < q.hops; ++h) {
                std::vector<index_t> next;
                for (index_t u : frontier) {
                    const auto ru = rows.find(u);
                    if (ru == rows.end()) continue;
                    for (index_t v : ru->second)
                        if (seen.insert(v).second) next.push_back(v);
                }
                frontier = std::move(next);
            }
            return static_cast<double>(seen.size() - 1);
        }
    }
}

/// The serving tier shared by the ranks: one store, cache and executor.
struct ServeTier {
    ServeTier() : store(store_config()), ex(store, exec_config(cache)) {
        store.set_cache(&cache);
    }
    static dsg::serve::StoreConfig store_config() {
        dsg::serve::StoreConfig c;
        c.publish_every = 4;
        return c;
    }
    static dsg::serve::ExecutorConfig exec_config(dsg::serve::ResultCache& cache) {
        dsg::serve::ExecutorConfig c;
        c.background = true;
        c.cache = &cache;
        return c;
    }
    dsg::serve::ResultCache cache;
    dsg::serve::SnapshotStore<double> store;
    dsg::serve::QueryExecutor<double> ex;  // declared last: stops first
};

}  // namespace

Outcome run_ingest_serve(const Options& opt) {
    const IngestShape shape = ingest_shape(opt, 1, 2);
    const int threads = shape.ranks() + 2;  // + generator + dispatcher
    const bool oversub = oversubscribed(threads);
    const std::filesystem::path dir =
        std::filesystem::path(opt.workdir) / "ingest-serve-durable";
    IngestRun run(shape.ranks());
    Stepper stepper(shape.ranks(), opt.seconds, opt.trace, kEpochPacing);
    LoadResult load;
    std::vector<double> eval_us[3];
    std::unique_ptr<ServeTier> tier;

    struct State {
        State(ProcessGrid& grid, const IngestShape& shape, ServeTier& tier,
              const std::filesystem::path& dir)
            : A(grid, shape.n, shape.n), engine(A, engine_config(shape)) {
            tier.store.attach(engine, A);
            dsg::persist::PersistConfig pc;
            pc.dir = dir;
            durable.emplace(engine, A, pc,
                            dsg::persist::DurabilityManager<SR>::Start::Fresh);
        }
        DistDynamicMatrix<double> A;
        Engine engine;
        std::optional<dsg::persist::DurabilityManager<SR>> durable;
    };

    dsg::par::run_world(shape.ranks(), [&](Comm& comm) {
        ProcessGrid grid(comm, shape.rows, shape.cols);
        const int r = comm.rank();
        std::optional<State> st;
        timed_setups(
            comm, run.setup_s,
            [&] {
                st.reset();
                comm.barrier();
                if (r == 0) tier.reset();
            },
            [&] {
                if (r == 0) tier = std::make_unique<ServeTier>();
                comm.barrier();
                st.emplace(grid, shape, *tier, dir);
                run.refused += seed_graph(st->engine, shape, opt.seed, r);
            });

        auto src = op_source(shape, opt.seed, r);
        std::optional<PersistHistograms> hists;
        if (r == 0 && opt.trace) hists.emplace();
        {
            std::optional<std::jthread> gen;
            if (r == 0)
                gen.emplace([&](std::stop_token stop) {
                    generate(stop, tier->ex, opt.seed, shape.n, load);
                });
            run_epochs(comm, stepper, run, st->engine, src, shape,
                       hists ? &*hists : nullptr,
                       [&] { return &st->durable->stats(); });
        }  // the generator stops and drains its in-flight queries here

        // Ingest until the engine's version is on the publication cadence,
        // so the newest snapshot holds exactly A.
        std::vector<Op> ops;
        while (st->engine.stats().applied_epochs % ServeTier::store_config().publish_every != 0) {
            next_ops(src, shape.epoch_ops, ops);
            run.refused += push_all(st->engine, ops);
            st->engine.pump();
        }
        const auto global = st->A.gather_global();
        if (r == 0) {
            std::unordered_map<index_t, std::vector<index_t>> rows;
            for (const auto& t : global) rows[t.row].push_back(t.col);
            for (std::uint64_t k = 0; k < kSampleQueries; ++k) {
                const auto q = make_query(opt.seed + 7, k, shape.n);
                const auto res = tier->ex.execute(q);
                ++run.checks;
                if (res.status != dsg::serve::QueryStatus::Ok ||
                    res.value != brute_force(q, rows))
                    ++run.check_failures;
                if (!res.cache_hit) eval_us[k % 3].push_back(res.latency_us);
            }
        }

        // Recovery from the run's durable state must reproduce A bit for bit.
        st->durable.reset();  // graceful shutdown: the log is synced
        DistDynamicMatrix<double> R(grid, shape.n, shape.n);
        dsg::persist::RecoveryOptions ro;
        ro.dir = dir;
        dsg::persist::recover<SR>(R, ro);
        std::uint64_t diff = 0;
        st->A.local().for_each([&](index_t i, index_t j, const double& v) {
            const double* g = R.local().find(i, j);
            if (g == nullptr || std::memcmp(g, &v, sizeof v) != 0) ++diff;
        });
        if (R.local().nnz() != st->A.local().nnz()) ++diff;
        diff = comm.allreduce<std::uint64_t>(
            diff, [](std::uint64_t a, std::uint64_t b) { return a + b; });
        if (r == 0) {
            ++run.checks;
            if (diff != 0) ++run.check_failures;
        }
        comm.barrier();
        st.reset();
    });
    const auto cache_stats = tier->cache.stats();
    tier.reset();
    std::filesystem::remove_all(dir);

    // Queries count as operations: shed and expired ones (and any that did
    // not answer Ok) fail.
    run.checks += load.issued;
    run.check_failures += load.shed + load.expired + load.not_ok;

    Layers layers;
    layers["serve.exec_us_p50"] = quantile(load.exec_us, 0.5);
    layers["serve.eval_us.edge_exists"] = quantile(eval_us[0], 0.5);
    layers["serve.eval_us.degree"] = quantile(eval_us[1], 0.5);
    layers["serve.eval_us.k_hop"] = quantile(eval_us[2], 0.5);
    layers["serve.cache_hit_frac"] =
        safe_div(static_cast<double>(cache_stats.hits),
                 static_cast<double>(cache_stats.hits + cache_stats.misses));
    layers["serve.query_ms_p50"] = quantile(load.on_arrival_ms, 0.5);
    layers["serve.query_ms_p90"] = quantile(load.on_arrival_ms, 0.9);
    layers["serve.query_ms_p99"] = quantile(load.on_arrival_ms, 0.99);
    layers["loadgen.lateness_ms_p50"] = quantile(load.lateness_ms, 0.5);
    layers["loadgen.lateness_ms_max"] = quantile(load.lateness_ms, 1.0);
    layers["loadgen.achieved_qps"] =
        safe_div(static_cast<double>(load.issued), load.duration_s);
    return finish_ingest(run, stepper, shape, std::move(layers), oversub);
}

}  // namespace perfbench
