// Streaming ingestion throughput: scenarios x epoch batch sizes.
//
// Not a paper figure — this measures the streaming engine layered on top of
// the paper's update machinery (src/stream/): per-rank producer threads push
// workload ops into bounded queues while every rank pumps epoch-batched
// collective application. Reported per (scenario, epoch_batch) cell:
// sustained throughput (ops/s across all ranks), epochs pumped, mean epoch
// latency, worst epoch, and worst backlog. With DSG_BENCH_JSON=<path> every
// cell is also recorded as one JSON object.
#include <atomic>
#include <thread>

#include "bench_common.hpp"
#include "obs/introspection.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

using namespace dsg;
using namespace dsg::bench;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;

namespace {

constexpr int kRanks = 4;
constexpr int kProducers = 2;  // per rank
constexpr int kScale = 12;     // 4096 vertices

std::size_t writes_per_producer() {
    return static_cast<std::size_t>(20'000 * bench_scale());
}

struct Cell {
    double elapsed_ms = 0;
    double ops_per_s = 0;
    std::uint64_t epochs = 0;
    double mean_epoch_ms = 0;
    double worst_epoch_ms = 0;
    std::size_t worst_backlog = 0;
    std::size_t final_nnz = 0;
};

Cell run_cell(stream::Scenario scenario, std::size_t epoch_batch) {
    Cell cell;
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = index_t{1} << kScale;

        // Initial load: half of an R-MAT instance, as in the figure benches.
        auto mine = graph::rmat_edges(
            kScale, 20'000 / kRanks, 7 + static_cast<std::uint64_t>(comm.rank()));
        sparse::IndexPermutation perm(n, 4242);
        perm.apply(mine);
        auto A = core::build_dynamic_matrix<SR>(grid, n, n, mine);

        stream::WorkloadConfig wl;
        wl.scenario = scenario;
        wl.n = n;
        wl.writes = writes_per_producer();
        wl.seed = 31 + static_cast<std::uint64_t>(comm.rank());

        stream::EngineConfig cfg;
        cfg.epoch_batch = epoch_batch;
        cfg.epoch_deadline = std::chrono::milliseconds(10);
        Engine engine(A, cfg);
        for (int prod = 0; prod < kProducers; ++prod)
            engine.queue().register_producer();

        const double elapsed_ms = timed_ms(comm, [&] {
            std::vector<std::thread> producers;
            producers.reserve(kProducers);
            for (int prod = 0; prod < kProducers; ++prod) {
                producers.emplace_back([&, prod] {
                    stream::drive_producer(
                        engine, stream::WorkloadProducer(wl, prod),
                        [&](index_t row, index_t col) {
                            engine.with_snapshot([&](auto snap) {
                                return snap.contains(row, col);
                            });
                        });
                });
            }
            engine.run();
            for (auto& t : producers) t.join();
        });

        const std::size_t nnz = A.global_nnz();  // collective
        const auto total_ops = comm.allreduce<std::uint64_t>(
            engine.stats().local_ops,
            [](std::uint64_t a, std::uint64_t b) { return a + b; });

        if (comm.rank() == 0) {
            const auto& s = engine.stats();
            cell.elapsed_ms = elapsed_ms;
            cell.ops_per_s =
                static_cast<double>(total_ops) / (elapsed_ms * 1e-3);
            cell.epochs = s.epochs;
            cell.mean_epoch_ms =
                s.epochs > 0 ? (s.drain_ms + s.apply_ms) /
                                   static_cast<double>(s.epochs)
                             : 0;
            cell.worst_epoch_ms = s.max_epoch_ms;
            cell.worst_backlog = s.max_backlog;
            cell.final_nnz = nnz;
        }
    });
    return cell;
}

}  // namespace

int main() {
    print_header("Streaming ingestion throughput (src/stream/)",
                 "no figure — engine layered on Sections IV-A/IV-B");
    std::printf(
        "%d ranks, %d producers/rank, %zu writes/producer, scale %d\n\n",
        kRanks, kProducers, writes_per_producer(), kScale);
    std::printf("%-22s %8s %10s %7s %9s %9s %9s\n", "scenario", "batch",
                "ops/s", "epochs", "epoch ms", "worst ms", "backlog");

    for (auto scenario : stream::all_scenarios()) {
        for (std::size_t epoch_batch : {std::size_t{512}, std::size_t{4096}}) {
            const Cell cell = run_cell(scenario, epoch_batch);
            std::printf("%-22s %8zu %10.0f %7llu %9.2f %9.2f %9zu\n",
                        stream::scenario_name(scenario), epoch_batch,
                        cell.ops_per_s,
                        static_cast<unsigned long long>(cell.epochs),
                        cell.mean_epoch_ms, cell.worst_epoch_ms,
                        cell.worst_backlog);

            JsonRecord rec("bench_stream_throughput");
            rec.field("scenario", stream::scenario_name(scenario))
                .field("ranks", kRanks)
                .field("producers_per_rank", kProducers)
                .field("writes_per_producer", writes_per_producer())
                .field("epoch_batch", epoch_batch)
                .field("elapsed_ms", cell.elapsed_ms)
                .field("ops_per_s", cell.ops_per_s)
                .field("epochs", cell.epochs)
                .field("mean_epoch_ms", cell.mean_epoch_ms)
                .field("worst_epoch_ms", cell.worst_epoch_ms)
                .field("worst_backlog", cell.worst_backlog)
                .field("final_nnz", cell.final_nnz);
            json_record(rec);
        }
    }

    // -----------------------------------------------------------------------
    // Metrics overhead gate: one representative cell, instruments recording
    // vs runtime-disabled (every record path reduced to a single relaxed
    // load — the same contrast the -DDSG_OBS_NOOP compile-out build gives,
    // without needing a second binary). The budget is 2%.
    {
        const auto scenario = stream::Scenario::SustainedUniform;
        constexpr std::size_t kGateBatch = 4096;
        const auto best_ops = [&](bool instruments_on) {
            obs::set_enabled(instruments_on);
            double best = 0;
            for (int rep = 0; rep < 3; ++rep)
                best = std::max(best, run_cell(scenario, kGateBatch).ops_per_s);
            obs::set_enabled(true);
            return best;
        };
        (void)run_cell(scenario, kGateBatch);  // warm-up
        const double ops_off = best_ops(false);
        const double ops_on = best_ops(true);
        const double ratio = ops_off > 0 ? ops_on / ops_off : 1.0;
        const bool within = ratio >= 0.98;
        std::printf(
            "\nmetrics overhead gate (%s, batch %zu, best of 3)%s:\n",
            stream::scenario_name(scenario), kGateBatch,
            obs::compiled_noop() ? " [DSG_OBS_NOOP build]" : "");
        std::printf("%-22s %10s\n", "instruments", "ops/s");
        std::printf("%-22s %10.0f\n", "disabled", ops_off);
        std::printf("%-22s %10.0f\n", "recording", ops_on);
        std::printf(
            "recording throughput is %.3fx disabled — %s the 2%% budget\n",
            ratio, within ? "within" : "OUTSIDE");
        JsonRecord rec("bench_stream_throughput_obs_gate");
        rec.field("scenario", stream::scenario_name(scenario))
            .field("epoch_batch", kGateBatch)
            .field("ops_per_s_disabled", ops_off)
            .field("ops_per_s_recording", ops_on)
            .field("ratio", ratio)
            .field("within_gate", within ? 1 : 0)
            .field("compiled_noop", obs::compiled_noop() ? 1 : 0);
        json_record_with_metrics(std::move(rec));
    }

    // -----------------------------------------------------------------------
    // Scrape overhead gate: the same representative cell with a live
    // IntrospectionServer on an ephemeral port and one scraper polling
    // GET /metrics at 10 Hz throughout — the introspection plane's
    // steady-state cost. Same best-of-3 pairing, same 2% budget.
    {
        const auto scenario = stream::Scenario::SustainedUniform;
        constexpr std::size_t kGateBatch = 4096;
        const auto best_of_3 = [&] {
            double best = 0;
            for (int rep = 0; rep < 3; ++rep)
                best = std::max(best, run_cell(scenario, kGateBatch).ops_per_s);
            return best;
        };
        const double ops_quiet = best_of_3();

        obs::IntrospectionServer server;
        server.start({});
        std::atomic<bool> stop_scraper{false};
        std::atomic<std::uint64_t> scrapes{0};
        std::thread scraper([&] {
            while (!stop_scraper.load(std::memory_order_relaxed)) {
                if (!obs::http_fetch(server.port(), "/metrics").empty())
                    scrapes.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
        });
        const double ops_scraped = best_of_3();
        stop_scraper.store(true);
        scraper.join();
        server.stop();

        const double ratio = ops_quiet > 0 ? ops_scraped / ops_quiet : 1.0;
        const bool within = ratio >= 0.98;
        std::printf(
            "\nscrape overhead gate (%s, batch %zu, best of 3, "
            "10 Hz GET /metrics):\n",
            stream::scenario_name(scenario), kGateBatch);
        std::printf("%-22s %10s\n", "scraper", "ops/s");
        std::printf("%-22s %10.0f\n", "idle", ops_quiet);
        std::printf("%-22s %10.0f  (%llu scrapes served)\n", "polling",
                    ops_scraped,
                    static_cast<unsigned long long>(scrapes.load()));
        std::printf(
            "scraped throughput is %.3fx idle — %s the 2%% budget\n", ratio,
            within ? "within" : "OUTSIDE");
        JsonRecord rec("bench_stream_throughput_scrape_gate");
        rec.field("scenario", stream::scenario_name(scenario))
            .field("epoch_batch", kGateBatch)
            .field("scrape_hz", 10)
            .field("ops_per_s_idle", ops_quiet)
            .field("ops_per_s_scraped", ops_scraped)
            .field("scrape_slowdown", ratio)
            .field("scrapes_served", scrapes.load())
            .field("within_gate", within ? 1 : 0);
        json_record(rec);
    }

    if (json_enabled()) json_flush();
    return 0;
}
