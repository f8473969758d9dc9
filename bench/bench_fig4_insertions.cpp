// Figure 4: mean insertion performance vs batch size.
//
// Protocol (Section VII-B b): insert half the non-zeros up front (untimed),
// then stream batches drawn from the remaining half. Batch size is per rank.
// Each cell is timed on kTrials fresh batches; one trial's time is the mean
// over the representative instances, and the table prints the median trial
// with the min-max range.
// Paper result: ours beats CombBLAS 3.63x (largest batches) to 227.68x
// (smallest); CTF >= 55.15x slower, PETSc >= 460.83x slower. The speedup
// *decreases* with batch size because the competitors' full rebuild
// amortizes better over denser update matrices.
#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <vector>

#include "baseline/static_rebuild.hpp"
#include "bench_common.hpp"

using namespace dsg;
using namespace dsg::bench;

namespace {

constexpr int kRanks = 4;
constexpr int kTrials = 5;
// Scaled from the paper's 1024..131072 (the ~2^12 instance scale-down
// shifts the sweep window down by ~2^5).
const std::size_t kBatchSizes[] = {256, 512, 1024, 2048, 4096, 8192};

// Our path and the three competitors, in table order.
constexpr int kImpls = 4;
constexpr std::array<const char*, kImpls> kImplKeys = {"ours", "combblas",
                                                       "ctf", "petsc"};
using Times = std::array<double, kImpls>;

/// One Times per trial: every implementation inserts the trial's fresh
/// batch.
std::vector<Times> run_one(const Instance& inst, std::size_t batch_size) {
    std::vector<Times> t(kTrials);
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = index_t{1} << inst.scale;
        EdgeStream stream(instance_edges(inst, comm.rank(), kRanks, 21));

        auto A = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, n, n, stream.initial);
        baseline::StaticRebuildMatrix<double> combblas(grid, n, n);
        combblas.construct<sparse::PlusTimes<double>>(stream.initial);
        baseline::SortedTupleMatrix<double> ctf(grid, n, n);
        ctf.construct<sparse::PlusTimes<double>>(stream.initial);
        baseline::PreallocCsrMatrix<double> petsc(grid, n, n);
        petsc.construct<sparse::PlusTimes<double>>(stream.initial);

        for (int b = 0; b < kTrials; ++b) {
            const auto batch =
                stream.batch(static_cast<std::size_t>(b), batch_size);
            const std::array<std::function<void()>, kImpls> insert = {
                [&] {
                    auto U = core::build_update_matrix(grid, n, n, batch);
                    core::add_update<sparse::PlusTimes<double>>(A, U);
                },
                [&] { combblas.insert_batch<sparse::PlusTimes<double>>(batch); },
                [&] { ctf.insert_batch<sparse::PlusTimes<double>>(batch); },
                [&] { petsc.insert_batch<sparse::PlusTimes<double>>(batch); },
            };
            // Rotate which implementation meets the fresh batch first, so
            // no column always pays (or is spared) the cold-cache run.
            for (int k = 0; k < kImpls; ++k) {
                const auto impl = static_cast<std::size_t>((b + k) % kImpls);
                const double ms = timed_ms(comm, insert[impl]);
                if (comm.rank() == 0) t[static_cast<std::size_t>(b)][impl] = ms;
            }
        }
    });
    return t;
}

struct Spread {
    double median, min, max;
};

Spread spread(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return {xs[xs.size() / 2], xs.front(), xs.back()};
}

}  // namespace

int main() {
    print_header("Figure 4: insertion time vs batch size (per rank)",
                 "Fig. 4");
    std::printf("ms per batch: median of %d trials [min-max]\n", kTrials);
    std::printf("%-6s | %-20s %-20s %-20s %-20s | %8s %7s %7s\n", "batch",
                "ours", "CombBLAS", "CTF", "PETSc", "vs CombB", "vs CTF",
                "vs PETSc");
    const auto instances = representative_instances();
    for (std::size_t bs : kBatchSizes) {
        const auto n_instances = static_cast<double>(instances.size());
        std::vector<Times> trials(kTrials, Times{});
        for (const auto& inst : instances) {
            const auto t = run_one(inst, bs);
            for (std::size_t b = 0; b < trials.size(); ++b)
                for (std::size_t k = 0; k < kImpls; ++k)
                    trials[b][k] += t[b][k] / n_instances;
        }
        std::array<Spread, kImpls> cell{};
        for (std::size_t k = 0; k < kImpls; ++k) {
            std::vector<double> xs;
            for (const auto& tr : trials) xs.push_back(tr[k]);
            cell[k] = spread(std::move(xs));
        }
        std::printf("%-6zu |", bs);
        for (const auto& c : cell)
            std::printf(" %6.2f [%5.2f-%5.2f]", c.median, c.min, c.max);
        const double ours = cell[0].median;
        std::printf(" | %7.1fx %6.1fx %6.1fx\n", cell[1].median / ours,
                    cell[2].median / ours, cell[3].median / ours);
        JsonRecord rec("bench_fig4_insertions");
        rec.field("batch", bs).field("trials", kTrials);
        for (std::size_t k = 0; k < kImpls; ++k) {
            const std::string key = kImplKeys[k];
            rec.field((key + "_ms").c_str(), cell[k].median)
                .field((key + "_min_ms").c_str(), cell[k].min)
                .field((key + "_max_ms").c_str(), cell[k].max);
        }
        json_record(rec);
    }
    std::printf(
        "\npaper: speedup over CombBLAS falls from 227.68x (batch 1024) to\n"
        "3.63x (batch 131072); the same monotone decrease should appear above\n"
        "(absolute factors differ: the stand-ins are ~2^12 smaller, so the\n"
        "rebuild penalty — proportional to nnz/batch — is correspondingly\n"
        "smaller at equal batch sizes).\n");
    return 0;
}
