// Figure 4: mean insertion performance vs batch size.
//
// Protocol (Section VII-B b): insert half the non-zeros up front (untimed),
// then stream batches drawn from the remaining half. Batch size is per rank.
// Paper result: ours beats CombBLAS 3.63x (largest batches) to 227.68x
// (smallest); CTF >= 55.15x slower, PETSc >= 460.83x slower. The speedup
// *decreases* with batch size because the competitors' full rebuild
// amortizes better over denser update matrices.
#include <array>
#include <functional>

#include "baseline/static_rebuild.hpp"
#include "bench_common.hpp"

using namespace dsg;
using namespace dsg::bench;

namespace {

constexpr int kRanks = 4;
constexpr int kBatches = 4;
// Scaled from the paper's 1024..131072 (the ~2^12 instance scale-down
// shifts the sweep window down by ~2^5).
const std::size_t kBatchSizes[] = {256, 512, 1024, 2048, 4096, 8192};

// Our path and the three competitors, in table order.
constexpr int kImpls = 4;
using Times = std::array<double, kImpls>;

Times run_one(const Instance& inst, std::size_t batch_size) {
    Times t{};
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

        Times sum{};
        for (int b = 0; b < kBatches; ++b) {
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
                sum[impl] += timed_ms(comm, insert[impl]);
            }
        }
        if (comm.rank() == 0)
            for (std::size_t k = 0; k < sum.size(); ++k)
                t[k] = sum[k] / kBatches;
    });
    return t;
}

}  // namespace

int main() {
    print_header("Figure 4: mean insertion time vs batch size (per rank)",
                 "Fig. 4");
    std::printf("%-10s | %9s %9s %9s %9s | %9s %7s %7s\n", "batch", "ours",
                "CombBLAS", "CTF", "PETSc", "vs CombB", "vs CTF", "vs PETSc");
    for (std::size_t bs : kBatchSizes) {
        Times mean{};
        int count = 0;
        for (const auto& inst : representative_instances()) {
            const Times t = run_one(inst, bs);
            for (std::size_t k = 0; k < mean.size(); ++k) mean[k] += t[k];
            ++count;
        }
        for (auto& m : mean) m /= count;
        const auto [ours, cb, ct, pe] = mean;
        std::printf(
            "%-10zu | %7.2fms %7.2fms %7.2fms %7.2fms | %8.1fx %6.1fx %6.1fx\n",
            bs, ours, cb, ct, pe, cb / ours, ct / ours, pe / ours);
        JsonRecord rec("bench_fig4_insertions");
        rec.field("batch", bs)
            .field("ours_ms", ours)
            .field("combblas_ms", cb)
            .field("ctf_ms", ct)
            .field("petsc_ms", pe);
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
