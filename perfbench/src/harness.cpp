#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <thread>

namespace perfbench {

using dsg::par::Phase;
using dsg::par::Profiler;

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool oversubscribed(int threads) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && hw < static_cast<unsigned>(threads)) {
        std::fprintf(stderr,
                     "perfbench: %d threads on %u hardware threads; the run "
                     "is marked oversubscribed (par.oversubscribed = 1)\n",
                     threads, hw);
        return true;
    }
    return false;
}

namespace {

struct LayerMetric {
    const char* name;
    const char* unit;
};

// Every traced run reports exactly these, in this order.
constexpr LayerMetric kLayerMetrics[] = {
    {"step.wall_ms", "ms"},
    {"step.residual_ms", "ms"},
    {"step.batch_ms_p99", "ms"},
    {"core.build_update_ms", "ms"},
    {"core.apply_update_ms", "ms"},
    {"core.dynamic_spgemm_ms", "ms"},
    {"core.compute_pattern_ms", "ms"},
    {"core.general_spgemm_ms", "ms"},
    {"core.sendrecv_ms", "ms"},
    {"core.bcast_ms", "ms"},
    {"core.scatter_ms", "ms"},
    {"core.reduce_scatter_ms", "ms"},
    {"core.redist_sort_ms", "ms"},
    {"core.redist_comm_ms", "ms"},
    {"sparse.local_mult_ms", "ms"},
    {"sparse.local_addition_ms", "ms"},
    {"sparse.local_construct_ms", "ms"},
    {"core.ar_frac", "ratio"},
    {"core.cstar_nnz_per_update", "count"},
    {"par.reduce_bytes_per_update", "B"},
    {"par.bcast_bytes_per_update", "B"},
    {"par.gather_bytes_per_update", "B"},
    {"par.alltoall_bytes_per_update", "B"},
    {"par.p2p_bytes_per_update", "B"},
    {"par.collectives_per_batch", "count"},
    {"par.rank_skew_ms", "ms"},
    {"par.oversubscribed", "count"},
    {"stream.push_ms", "ms"},
    {"stream.drain_ms", "ms"},
    {"stream.apply_ms", "ms"},
    {"stream.pump_self_ms", "ms"},
    {"analytics.hook_ms", "ms"},
    {"analytics.hook_share", "ratio"},
    {"graph.triangle_recount_ms", "ms"},
    {"persist.epoch_ms", "ms"},
    {"persist.wal_append_us", "us"},
    {"persist.fsync_ms", "ms"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.wal_bytes_per_op", "B"},
    {"persist.checkpoint_bytes", "B"},
    {"serve.publish_ms", "ms"},
    {"serve.exec_us_p50", "us"},
    {"serve.eval_us.edge_exists", "us"},
    {"serve.eval_us.degree", "us"},
    {"serve.eval_us.k_hop", "us"},
    {"serve.cache_hit_frac", "ratio"},
    {"serve.query_ms_p50", "ms"},
    {"serve.query_ms_p90", "ms"},
    {"serve.query_ms_p99", "ms"},
    {"baseline.summa_recompute_ms", "ms"},
    {"loadgen.lateness_ms_p50", "ms"},
    {"loadgen.lateness_ms_max", "ms"},
    {"loadgen.achieved_qps", "1/s"},
    {"obs.trace_overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
};

Report per_layer_report(const Layers& values) {
    for (const auto& [name, value] : values) {
        const bool known = std::any_of(
            std::begin(kLayerMetrics), std::end(kLayerMetrics),
            [&](const LayerMetric& m) { return name == m.name; });
        if (!known) throw std::logic_error("unlisted per-layer metric " + name);
    }
    Report rep;
    for (const auto& m : kLayerMetrics) {
        const auto it = values.find(m.name);
        rep.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
    return rep;
}

Report end_to_end_report(double setup_s, double comm_bytes_per_update,
                         double updates_per_step,
                         const std::vector<double>& step_ms) {
    std::vector<double> rate, p50, p90;
    const std::size_t per = std::max<std::size_t>(1, step_ms.size() / kSlices);
    for (std::size_t at = 0; at + per <= step_ms.size(); at += per) {
        const std::vector<double> slice(step_ms.begin() + static_cast<std::ptrdiff_t>(at),
                                        step_ms.begin() + static_cast<std::ptrdiff_t>(at + per));
        rate.push_back(safe_div(updates_per_step * 1e3, mean(slice)));
        p50.push_back(quantile(slice, 0.50));
        p90.push_back(quantile(slice, 0.90));
    }
    Report rep;
    rep.add("setup_s", setup_s, "s");
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB");
    rep.add("comm_bytes_per_update", comm_bytes_per_update, "B");
    rep.add("updates_per_s", quantile(rate, 0.5), "1/s");
    rep.add("batch_ms_p50", quantile(p50, 0.5), "ms");
    rep.add("batch_ms_p90", quantile(p90, 0.5), "ms");
    return rep;
}

// Profiler phase totals (inclusive, summed over rank threads) per rank and
// traced step.
void add_profiler_phases(Layers& out, double rank_steps) {
    const std::pair<const char*, Phase> phases[] = {
        {"core.sendrecv_ms", Phase::SendRecv},
        {"core.bcast_ms", Phase::Bcast},
        {"core.scatter_ms", Phase::Scatter},
        {"core.reduce_scatter_ms", Phase::ReduceScatter},
        {"core.redist_sort_ms", Phase::RedistSort},
        {"core.redist_comm_ms", Phase::RedistComm},
        {"sparse.local_mult_ms", Phase::LocalMult},
        {"sparse.local_addition_ms", Phase::LocalAddition},
        {"sparse.local_construct_ms", Phase::LocalConstruct},
    };
    for (const auto& [name, phase] : phases)
        out[name] = safe_div(Profiler::total_seconds(phase) * 1e3, rank_steps);
}

// CommStats deltas of the traced steps, per update and per step.
void add_comm_kinds(Layers& out, const dsg::par::CommStats::Snapshot& traced,
                    double traced_updates, double traced_steps) {
    auto per_update = [&](std::uint64_t bytes) {
        return safe_div(static_cast<double>(bytes), traced_updates);
    };
    out["par.reduce_bytes_per_update"] = per_update(traced.reduce_bytes);
    out["par.bcast_bytes_per_update"] = per_update(traced.bcast_bytes);
    out["par.gather_bytes_per_update"] = per_update(traced.gather_bytes);
    out["par.alltoall_bytes_per_update"] = per_update(traced.alltoall_bytes);
    out["par.p2p_bytes_per_update"] = per_update(traced.p2p_bytes);
    out["par.collectives_per_batch"] =
        safe_div(static_cast<double>(traced.collectives), traced_steps);
}

}  // namespace

void report_loop(Outcome& out, Layers& layers, const Stepper& stepper,
                 const CommTotals& comm, const std::vector<double>& setup_s,
                 double updates_per_step, int ranks, bool oversub) {
    const double steps = static_cast<double>(stepper.steps().size());
    out.end_to_end = end_to_end_report(
        quantile(setup_s, 0.5), safe_div(comm.total_bytes(), steps * updates_per_step),
        updates_per_step, stepper.walls(false));

    const double traced = static_cast<double>(stepper.traced_steps());
    const auto walls = stepper.walls(true);
    layers["step.wall_ms"] = mean(walls);
    layers["step.batch_ms_p99"] = quantile(walls, 0.99);
    add_profiler_phases(layers, traced * ranks);
    add_comm_kinds(layers, comm.traced(), traced * updates_per_step, traced);
    layers["par.rank_skew_ms"] = stepper.mean_traced_skew_ms();
    layers["par.oversubscribed"] = oversub ? 1.0 : 0.0;
    layers["obs.trace_overhead_frac"] = stepper.trace_overhead_frac();
}

void report_checks(Outcome& out, Layers& layers, std::uint64_t attempted,
                   std::uint64_t failed, bool checks_passed) {
    out.attempted = attempted;
    out.failed = failed;
    out.correct = checks_passed;
    layers["failed_frac"] =
        safe_div(static_cast<double>(failed), static_cast<double>(attempted));
    out.per_layer = per_layer_report(layers);
}

void CommTotals::step(const Snapshot& now, bool traced) {
    if (traced) {
        traced_.p2p_messages += now.p2p_messages - end_.p2p_messages;
        traced_.p2p_bytes += now.p2p_bytes - end_.p2p_bytes;
        traced_.bcast_bytes += now.bcast_bytes - end_.bcast_bytes;
        traced_.alltoall_bytes += now.alltoall_bytes - end_.alltoall_bytes;
        traced_.reduce_bytes += now.reduce_bytes - end_.reduce_bytes;
        traced_.gather_bytes += now.gather_bytes - end_.gather_bytes;
        traced_.barriers += now.barriers - end_.barriers;
        traced_.collectives += now.collectives - end_.collectives;
        traced_.async_posted += now.async_posted - end_.async_posted;
        traced_.async_completed += now.async_completed - end_.async_completed;
    }
    end_ = now;
}

}  // namespace perfbench
