// Shared machinery of the perfbench workloads: options, the metric report,
// the barrier-bracketed step loop, per-rank span accounting, and the
// correctness tallies that feed the result line.
//
// Every workload runs its rank threads inside one par::run_world and drives
// the library only through its public calls. Time is taken from outside
// those calls with std::chrono::steady_clock; the counters the library
// already exposes (CommStats, engine/persist stats, registry histograms,
// Profiler phase totals) are read at step boundaries.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "par/comm.hpp"
#include "par/profiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;        ///< smoke-test sizes
    std::string workdir;      ///< scratch directory the run may write into
};

/// q-quantile (0..1) with linear interpolation; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double safe_div(double a, double b) { return b != 0 ? a / b : 0.0; }

inline double mean(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return safe_div(s, static_cast<double>(v.size()));
}

/// Named metrics in insertion order.
class Report {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        rows_.push_back({name, value, unit});
    }
    struct Row {
        std::string name;
        double value;
        std::string unit;
    };
    [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

private:
    std::vector<Row> rows_;
};

/// What one workload run produced: both metric sets (main() prints the one
/// the --trace flag selects) and the correctness tally.
struct Outcome {
    Report end_to_end;
    Report per_layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;  ///< every output check passed
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Warns (stderr) and returns true when the machine has fewer hardware
/// threads than the workload starts.
bool oversubscribed(int threads);

/// Per-rank accumulation of span durations over traced steps, keyed by the
/// metric name the span reports under.
class SpanTotals {
public:
    void add(const std::string& name, double ms) { ms_[name] += ms; }
    [[nodiscard]] double get(const std::string& name) const {
        const auto it = ms_.find(name);
        return it == ms_.end() ? 0.0 : it->second;
    }

private:
    std::map<std::string, double> ms_;
};

/// Times one public call on one rank: adds its duration to `totals` when the
/// step is traced, and always to `busy` (the rank's own work this step).
class Span {
public:
    Span(SpanTotals& totals, const char* name, bool traced, double& busy)
        : totals_(totals), name_(name), traced_(traced), busy_(busy),
          t0_(Clock::now()) {}
    ~Span() {
        const double ms = ms_since(t0_);
        busy_ += ms;
        if (traced_) totals_.add(name_, ms);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanTotals& totals_;
    const char* name_;
    bool traced_;
    double& busy_;
    Clock::time_point t0_;
};

/// Steps run back to back in bursts of `burst`; with a positive `period`
/// burst b starts no earlier than b * period after the loop began (open loop:
/// a late burst is followed at once by the next one due).
struct Pacing {
    std::int64_t burst = 1;
    std::chrono::milliseconds period{0};
};

/// The timed loop shared by every workload. Each step is bracketed by two
/// barriers; rank 0 times the bracket, and each rank reports its own busy
/// time before the closing barrier, so wait (skew) and work separate. The
/// loop stops once `seconds` have elapsed (after at least three steps).
/// With tracing on, blocks of steps alternate between untraced and traced
/// (Profiler phase timing on): the traced blocks give the per-layer numbers,
/// and the two kinds of block together give the tracing overhead.
class Stepper {
public:
    struct Step {
        double wall_ms;
        double skew_ms;  ///< max - min of the ranks' busy time
        bool traced;
    };

    Stepper(int ranks, double seconds, bool trace, Pacing pacing = Pacing())
        : busy_(static_cast<std::size_t>(ranks), 0.0),
          seconds_(seconds),
          trace_(trace),
          pacing_(pacing) {}

    /// Collective over `comm`'s world. body(traced) performs one step on the
    /// calling rank and returns that rank's busy milliseconds. after(traced)
    /// runs on every rank once the step's closing barrier has passed, for
    /// rank-local counter reads. on_step0(traced) runs on rank 0 only, after
    /// the closing barrier, while every other rank waits for the next step.
    template <typename Body, typename After, typename OnStep0>
    void run(dsg::par::Comm& comm, Body&& body, After&& after,
             OnStep0&& on_step0) {
        const int r = comm.rank();
        if (r == 0) {
            stop_.store(false);
            traced_.store(false);
            dsg::par::Profiler::set_enabled(false);
            loop_t0_ = Clock::now();
            block_t0_ = loop_t0_;
        }
        // Paced ranks spin (yielding) until the burst is due rather than
        // sleep: after a sleep the host's cores came back slow, and epoch
        // times then depended on what had run before the benchmark.
        const bool paced = pacing_.period.count() > 0;
        comm.barrier();
        for (std::int64_t k = 0;; ++k) {
            if (paced && k % pacing_.burst == 0) {
                const auto due = loop_t0_ + pacing_.period * (k / pacing_.burst);
                while (Clock::now() < due) std::this_thread::yield();
            }
            comm.barrier();
            if (stop_.load(std::memory_order_acquire)) break;
            const bool traced = traced_.load(std::memory_order_acquire);
            const auto t0 = Clock::now();
            busy_[static_cast<std::size_t>(r)] = body(traced);
            comm.barrier();
            if (r == 0) {
                const auto t1 = Clock::now();
                const auto [lo, hi] = std::minmax_element(busy_.begin(), busy_.end());
                steps_.push_back({ms_between(t0, t1), *hi - *lo, traced});
                on_step0(traced);
                decide(t1);
            }
            after(traced);
        }
        if (r == 0) dsg::par::Profiler::set_enabled(false);
    }

    [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }

    [[nodiscard]] std::vector<double> walls(bool traced) const {
        std::vector<double> out;
        for (const auto& s : steps_)
            if (s.traced == traced) out.push_back(s.wall_ms);
        return out;
    }
    [[nodiscard]] std::size_t traced_steps() const {
        return static_cast<std::size_t>(std::count_if(
            steps_.begin(), steps_.end(), [](const Step& s) { return s.traced; }));
    }
    [[nodiscard]] double mean_traced_skew_ms() const {
        double sum = 0;
        for (const auto& s : steps_)
            if (s.traced) sum += s.skew_ms;
        return safe_div(sum, static_cast<double>(traced_steps()));
    }
    /// Mean traced step over mean untraced step, minus one.
    [[nodiscard]] double trace_overhead_frac() const {
        const double untraced = mean(walls(false));
        return untraced > 0 ? mean(walls(true)) / untraced - 1.0 : 0.0;
    }

private:
    // Rank 0, between the closing barrier of one step and the opening
    // barrier of the next.
    void decide(Clock::time_point now) {
        const double elapsed_s = ms_between(loop_t0_, now) * 1e-3;
        if (elapsed_s >= seconds_ && steps_.size() >= kMinSteps) {
            stop_.store(true, std::memory_order_release);
            return;
        }
        // Eight blocks per run: untraced first, then alternating.
        if (trace_ && ms_between(block_t0_, now) * 1e-3 >= seconds_ / 8) {
            const bool next = !traced_.load();
            dsg::par::Profiler::set_enabled(next);
            traced_.store(next, std::memory_order_release);
            block_t0_ = now;
        }
    }

    static constexpr std::size_t kMinSteps = 3;

    std::vector<double> busy_;
    std::vector<Step> steps_;
    double seconds_;
    bool trace_;
    Pacing pacing_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> traced_{false};
    Clock::time_point loop_t0_{}, block_t0_{};
};

/// Medians of repeated set-ups: the workload builds its whole state this
/// many times and reports the median build time as setup_s.
inline constexpr int kSetupRepeats = 5;

/// Builds the workload's state kSetupRepeats times, each between barriers;
/// reset() first destroys the previous state, outside the timing. Rank 0
/// appends the timings to `setup_s`. Collective.
template <typename Reset, typename Build>
void timed_setups(dsg::par::Comm& comm, std::vector<double>& setup_s,
                  Reset&& reset, Build&& build) {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        reset();
        comm.barrier();
        const auto t0 = Clock::now();
        build();
        comm.barrier();
        if (comm.rank() == 0) setup_s.push_back(ms_since(t0) * 1e-3);
    }
}

/// Rank 0's CommStats bookkeeping over the timed steps: the whole loop, and
/// the traced steps alone. Fed between steps, when no rank communicates.
class CommTotals {
public:
    using Snapshot = dsg::par::CommStats::Snapshot;
    void start(const Snapshot& now) { begin_ = end_ = now; }
    void step(const Snapshot& now, bool traced);
    [[nodiscard]] double total_bytes() const {
        return static_cast<double>(end_.total_bytes() - begin_.total_bytes());
    }
    [[nodiscard]] const Snapshot& traced() const { return traced_; }

private:
    Snapshot begin_{}, end_{}, traced_{};
};

/// Per-layer values by metric name; names a workload does not exercise
/// stay 0.
using Layers = std::map<std::string, double>;

/// Step-time metrics are medians over this many consecutive slices of the
/// run (each slice's throughput, median and p90), so a burst of outside load
/// that covers part of a run moves them less than it moves whole-run figures.
inline constexpr std::size_t kSlices = 5;

/// What every workload derives the same way from its timed loop: the
/// end-to-end report in `out`, and in `layers` the traced steps' wall time,
/// Profiler phases, CommStats kinds, rank skew and tracing overhead. Each
/// step applied `updates_per_step` updates on `ranks` ranks.
void report_loop(Outcome& out, Layers& layers, const Stepper& stepper,
                 const CommTotals& comm, const std::vector<double>& setup_s,
                 double updates_per_step, int ranks, bool oversub);

/// Records the correctness tally (checks_passed: every output check ran and
/// passed) and seals the per-layer report, every listed metric present;
/// throws on a name outside the list.
void report_checks(Outcome& out, Layers& layers, std::uint64_t attempted,
                   std::uint64_t failed, bool checks_passed);

}  // namespace perfbench
