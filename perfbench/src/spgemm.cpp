// spgemm-insert (Algorithm 1, Fig. 9 protocol) and spgemm-general
// (Algorithm 2, Fig. 10 protocol), both on a 2x2 grid of rank threads.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "core/dynamic_spgemm.hpp"
#include "core/general_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "graph/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dsg::core::DistDcsr;
using dsg::core::DistDynamicMatrix;
using dsg::core::ProcessGrid;
using dsg::par::Comm;
using dsg::sparse::index_t;
using dsg::sparse::Triple;
using PlusTimes = dsg::sparse::PlusTimes<double>;
using MinPlus = dsg::sparse::MinPlus<double>;

constexpr int kGridRows = 2;
constexpr int kGridCols = 2;
constexpr int kRanks = kGridRows * kGridCols;
constexpr std::size_t kInsertWindow = 4;

/// Entries of `want`'s local block missing from or different in `got`'s,
/// and entries `got` holds that `want` lacks; summed over ranks.
/// Returns {entries compared, entries that differ}. Collective.
template <typename T>
std::pair<std::uint64_t, std::uint64_t> compare_blocks(
    Comm& comm, const DistDynamicMatrix<T>& got,
    const DistDynamicMatrix<T>& want) {
    std::uint64_t checked = 0, bad = 0;
    want.local().for_each([&](index_t i, index_t j, const T& v) {
        ++checked;
        const T* g = got.local().find(i, j);
        if (g == nullptr || *g != v) ++bad;
    });
    got.local().for_each([&](index_t i, index_t j, const T&) {
        if (want.local().find(i, j) == nullptr) {
            ++checked;
            ++bad;
        }
    });
    auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
    return {comm.allreduce<std::uint64_t>(checked, sum),
            comm.allreduce<std::uint64_t>(bad, sum)};
}

/// What the rank threads of one SpGEMM run hand back to the main thread.
struct SpgemmRun {
    std::vector<double> setup_s;
    std::vector<SpanTotals> spans = std::vector<SpanTotals>(kRanks);
    CommTotals comm;
    double recompute_ms = 0;
    std::uint64_t checked = 0, mismatched = 0;
    // Algorithm 2 volume counters over traced steps.
    std::uint64_t ar_nnz = 0, aprime_nnz = 0, cstar_nnz = 0;
};

Outcome finish(const SpgemmRun& run, const Stepper& stepper,
               double updates_per_step, std::span<const char* const> span_names,
               Layers layers, bool oversub) {
    Outcome out;
    report_loop(out, layers, stepper, run.comm, run.setup_s, updates_per_step,
                kRanks, oversub);
    // The library calls of a step and the closing-barrier wait add up to
    // the step: step.residual_ms is the part no call accounts for.
    const double rank_steps = static_cast<double>(stepper.traced_steps()) * kRanks;
    double attributed = 0;
    for (const char* name : span_names) {
        double sum = 0;
        for (const auto& s : run.spans) sum += s.get(name);
        layers[name] = safe_div(sum, rank_steps);
        attributed += layers[name];
    }
    layers["step.residual_ms"] = layers["step.wall_ms"] - attributed;
    layers["baseline.summa_recompute_ms"] = run.recompute_ms;
    // attempted: every timed update plus every result entry compared.
    const auto updates = static_cast<std::uint64_t>(
        static_cast<double>(stepper.steps().size()) * updates_per_step);
    report_checks(out, layers, updates + run.checked, run.mismatched,
                  run.mismatched == 0 && run.checked > 0);
    return out;
}

// ---------------------------------------------------------------------------
// spgemm-insert
// ---------------------------------------------------------------------------

struct InsertState {
    std::vector<Triple<double>> pool;  ///< this rank's edges of B (draw pool)
    DistDynamicMatrix<double> B, A, C;

    InsertState(ProcessGrid& grid, int scale, std::size_t edges,
                std::uint64_t seed, int rank)
        : pool(make_pool(scale, edges, seed, rank)),
          B(dsg::core::build_dynamic_matrix<PlusTimes>(
              grid, index_t{1} << scale, index_t{1} << scale, pool)),
          A(grid, index_t{1} << scale, index_t{1} << scale),
          C(grid, index_t{1} << scale, index_t{1} << scale) {}

    // The Table I "twitter" stand-in's slice of this rank: R-MAT edges with
    // value 1, indices randomly permuted, read undirected.
    static std::vector<Triple<double>> make_pool(int scale, std::size_t edges,
                                                 std::uint64_t seed, int rank) {
        auto mine = dsg::graph::rmat_edges(
            scale, edges / kRanks, seed * 1000003 + static_cast<std::uint64_t>(rank));
        for (auto& e : mine) e.value = 1.0;
        dsg::sparse::IndexPermutation perm(index_t{1} << scale, seed * 77 + 1);
        perm.apply(mine);
        return dsg::graph::symmetrize(std::move(mine));
    }
};

}  // namespace

Outcome run_spgemm_insert(const Options& opt) {
    const int scale = opt.tiny ? 10 : 15;
    const std::size_t edges = opt.tiny ? 8'000 : 293'000;
    const std::size_t batch = opt.tiny ? 64 : 1024;  // per rank
    const index_t n = index_t{1} << scale;
    const bool oversub = oversubscribed(kRanks);

    SpgemmRun run;
    Stepper stepper(kRanks, opt.seconds, opt.trace);
    dsg::par::run_world(kRanks, [&](Comm& comm) {
        ProcessGrid grid(comm, kGridRows, kGridCols);
        const int r = comm.rank();
        std::optional<InsertState> st;
        timed_setups(
            comm, run.setup_s, [&] { st.reset(); },
            [&] { st.emplace(grid, scale, edges, opt.seed, r); });

        std::mt19937_64 rng(opt.seed * 7919 + static_cast<std::uint64_t>(r) + 17);
        std::vector<Triple<double>> next;
        auto draw = [&] {
            next.clear();
            for (std::size_t x = 0; x < batch; ++x)
                next.push_back(st->pool[rng() % st->pool.size()]);
        };
        auto& spans = run.spans[static_cast<std::size_t>(r)];
        auto step = [&](bool traced) {
            double busy = 0;
            std::optional<DistDcsr<double>> Astar;
            {
                Span s(spans, "core.build_update_ms", traced, busy);
                Astar.emplace(dsg::core::build_update_matrix(grid, n, n, next));
            }
            {
                Span s(spans, "core.dynamic_spgemm_ms", traced, busy);
                DistDcsr<double> Bstar(grid, n, n);
                dsg::core::dynamic_spgemm_algebraic<PlusTimes>(st->C, st->A, *Astar,
                                                               st->B, Bstar);
            }
            {
                Span s(spans, "core.apply_update_ms", traced, busy);
                dsg::core::add_update<PlusTimes>(st->A, *Astar);
            }
            return busy;
        };
        // A' restarts from empty after every kInsertWindow batches (untimed),
        // which bounds C and the process's memory whatever the run length.
        std::size_t in_window = 0;  // batches in A'
        auto next_step = [&] {
            if (++in_window == kInsertWindow) {
                in_window = 0;
                st->A = DistDynamicMatrix<double>(grid, n, n);
                st->C = DistDynamicMatrix<double>(grid, n, n);
            }
            draw();
        };
        draw();
        if (r == 0) run.comm.start(comm.stats().snapshot());
        stepper.run(
            comm, step, [&](bool) { next_step(); },
            [&](bool traced) { run.comm.step(comm.stats().snapshot(), traced); });
        // Untimed batches fill the last window, so the checked A' (and the
        // memory the check needs) is the same whenever the run stopped.
        do {
            step(false);
            draw();
        } while (++in_window < kInsertWindow);

        // Correctness: C must equal a from-scratch SUMMA of the final A'B.
        comm.barrier();
        const auto t0 = Clock::now();
        auto ref = dsg::core::summa_multiply<PlusTimes>(st->A, st->B);
        comm.barrier();
        if (r == 0) run.recompute_ms = ms_since(t0);
        const auto [checked, bad] = compare_blocks(comm, st->C, ref);
        if (r == 0) {
            run.checked = checked;
            run.mismatched = bad;
        }
    });

    static const char* const kSpans[] = {"core.build_update_ms",
                                         "core.dynamic_spgemm_ms",
                                         "core.apply_update_ms"};
    return finish(run, stepper, static_cast<double>(batch * kRanks), kSpans,
                  Layers{}, oversub);
}

// ---------------------------------------------------------------------------
// spgemm-general
// ---------------------------------------------------------------------------

namespace {

struct GeneralState {
    std::deque<Triple<double>> live;     ///< this rank's edges present in A
    std::deque<Triple<double>> deleted;  ///< this rank's edges masked out
    DistDynamicMatrix<double> B, A, C;
    DistDynamicMatrix<std::uint64_t> F;  ///< Bloom filter of C

    GeneralState(ProcessGrid& grid, index_t n, std::vector<Triple<double>> share,
                 std::size_t pool)
        : B(dsg::core::build_dynamic_matrix<MinPlus>(grid, n, n, share)),
          A(grid, n, n),
          C(grid, n, n),
          F(grid, n, n) {
        // A starts as B minus a pool of `pool` edges, so every batch can
        // re-insert as many edges as it deletes and nnz(A) stays constant.
        pool = std::min(pool, share.size());
        deleted.assign(share.begin(), share.begin() + static_cast<std::ptrdiff_t>(pool));
        live.assign(share.begin() + static_cast<std::ptrdiff_t>(pool), share.end());
        A = dsg::core::build_dynamic_matrix<MinPlus>(
            grid, n, n, std::vector<Triple<double>>(live.begin(), live.end()));
        dsg::core::SummaOptions so;
        so.bloom_out = &F;
        dsg::core::summa<MinPlus>(C, A, B, so);
    }

    /// The ER stand-in with integer weights 1-9, read undirected and
    /// deduplicated; every rank generates the same list and keeps every
    /// ranks-th edge, so each edge has exactly one owner.
    static std::vector<Triple<double>> make_share(index_t n, std::size_t edges,
                                                  std::uint64_t seed, int rank) {
        auto all = dsg::graph::erdos_renyi_edges(n, edges, seed * 1000003 + 5);
        for (auto& e : all)
            e.value = std::min(9.0, 1.0 + std::floor(e.value * 9.0));
        all = dsg::graph::simplify(dsg::graph::symmetrize(std::move(all)));
        std::vector<Triple<double>> mine;
        for (std::size_t k = static_cast<std::size_t>(rank); k < all.size();
             k += kRanks)
            mine.push_back(all[k]);
        std::mt19937_64 rng(seed * 31 + static_cast<std::uint64_t>(rank));
        std::shuffle(mine.begin(), mine.end(), rng);
        return mine;
    }
};

}  // namespace

Outcome run_spgemm_general(const Options& opt) {
    // Fig. 10's er-13 stand-in: the er-15 one needs 1.3 GB and, being
    // memory-bound, its batch-time tail tracked the host's load.
    const index_t n = index_t{1} << (opt.tiny ? 10 : 13);
    const std::size_t edges = opt.tiny ? 8'000 : 60'000;
    const std::size_t batch = opt.tiny ? 32 : 256;  // per rank
    const std::size_t half = batch / 2;
    const bool oversub = oversubscribed(kRanks);

    SpgemmRun run;
    Stepper stepper(kRanks, opt.seconds, opt.trace);
    dsg::par::run_world(kRanks, [&](Comm& comm) {
        ProcessGrid grid(comm, kGridRows, kGridCols);
        const int r = comm.rank();
        std::optional<GeneralState> st;
        timed_setups(
            comm, run.setup_s, [&] { st.reset(); },
            [&] {
                st.emplace(grid, n, GeneralState::make_share(n, edges, opt.seed, r),
                           half);
            });

        // Each batch MASKs the `half` oldest live edges and MERGEs back the
        // `half` oldest deleted ones with fresh weights.
        std::mt19937_64 rng(opt.seed * 7919 + static_cast<std::uint64_t>(r) + 29);
        std::vector<Triple<double>> masks, merges, all;
        auto draw = [&] {
            masks.assign(st->live.begin(), st->live.begin() + static_cast<std::ptrdiff_t>(half));
            merges.assign(st->deleted.begin(),
                          st->deleted.begin() + static_cast<std::ptrdiff_t>(half));
            st->live.erase(st->live.begin(), st->live.begin() + static_cast<std::ptrdiff_t>(half));
            st->deleted.erase(st->deleted.begin(),
                              st->deleted.begin() + static_cast<std::ptrdiff_t>(half));
            for (auto& m : merges) {
                m.value = static_cast<double>(1 + rng() % 9);
                st->live.push_back(m);
            }
            for (const auto& m : masks) st->deleted.push_back(m);
            all = masks;
            all.insert(all.end(), merges.begin(), merges.end());
        };
        draw();
        auto& spans = run.spans[static_cast<std::size_t>(r)];
        if (r == 0) run.comm.start(comm.stats().snapshot());
        dsg::core::GeneralSpgemmStats last{};
        stepper.run(
            comm,
            [&](bool traced) {
                double busy = 0;
                std::optional<DistDcsr<double>> Astar, Umerge, Umask;
                {
                    Span s(spans, "core.build_update_ms", traced, busy);
                    Astar.emplace(dsg::core::build_update_matrix(grid, n, n, all));
                    Umerge.emplace(dsg::core::build_update_matrix(grid, n, n, merges));
                    Umask.emplace(dsg::core::build_update_matrix(grid, n, n, masks));
                }
                std::optional<DistDynamicMatrix<std::uint64_t>> Cstar;
                {
                    Span s(spans, "core.compute_pattern_ms", traced, busy);
                    DistDcsr<double> Bstar(grid, n, n);
                    Cstar.emplace(dsg::core::compute_pattern(st->A, *Astar, st->B, Bstar));
                }
                {
                    Span s(spans, "core.apply_update_ms", traced, busy);
                    dsg::core::merge_update(st->A, *Umerge);
                    dsg::core::mask_delete(st->A, *Umask);
                }
                {
                    Span s(spans, "core.general_spgemm_ms", traced, busy);
                    last = dsg::core::general_dynamic_spgemm<MinPlus>(
                        st->C, st->F, st->A, st->B, *Cstar);
                }
                return busy;
            },
            [&](bool) { draw(); },
            [&](bool traced) {
                run.comm.step(comm.stats().snapshot(), traced);
                if (traced) {
                    run.ar_nnz += last.ar_nnz_global;
                    run.aprime_nnz += last.aprime_nnz_global;
                    run.cstar_nnz += last.cstar_nnz_global;
                }
            });

        comm.barrier();
        const auto t0 = Clock::now();
        auto ref = dsg::core::summa_multiply<MinPlus>(st->A, st->B);
        comm.barrier();
        if (r == 0) run.recompute_ms = ms_since(t0);
        const auto [checked, bad] = compare_blocks(comm, st->C, ref);
        if (r == 0) {
            run.checked = checked;
            run.mismatched = bad;
        }
    });

    const double updates_per_step = static_cast<double>(2 * half * kRanks);
    Layers layers;
    layers["core.ar_frac"] = safe_div(static_cast<double>(run.ar_nnz),
                                      static_cast<double>(run.aprime_nnz));
    layers["core.cstar_nnz_per_update"] =
        safe_div(static_cast<double>(run.cstar_nnz),
                 static_cast<double>(stepper.traced_steps()) * updates_per_step);
    static const char* const kSpans[] = {
        "core.build_update_ms", "core.compute_pattern_ms",
        "core.apply_update_ms", "core.general_spgemm_ms"};
    return finish(run, stepper, updates_per_step, kSpans, std::move(layers),
                  oversub);
}

}  // namespace perfbench
