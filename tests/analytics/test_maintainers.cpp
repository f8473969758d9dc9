// Live analytics acceptance suite: the AnalyticsHub contract (dispatch
// order, stats, engine attachment) and THE end-to-end property — after
// every applied epoch of a mixed insert/delete workload with concurrent
// producers, every maintainer's value equals a from-scratch recomputation
// over the stream's replicated history.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "analytics/maintainer.hpp"
#include "core/dist_test_utils.hpp"
#include "par/comm.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

namespace {

using namespace dsg;
using test::CoordMap;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;
using sparse::index_t;
using sparse::Triple;
using stream::OpKind;

constexpr int kRanks = 4;  // 2x2 grid

/// Test double: records every delta it is handed and publishes the last
/// version seen.
class Recorder final : public analytics::Maintainer<double> {
public:
    explicit Recorder(const char* name, std::vector<std::string>* order)
        : name_(name), order_(order) {}

    [[nodiscard]] const char* name() const override { return name_; }
    void on_epoch(const stream::EpochDelta<double>& delta) override {
        if (order_ != nullptr) order_->push_back(name_);
        deltas_.push_back(delta);
        version_.store(static_cast<double>(delta.version),
                       std::memory_order_release);
    }
    [[nodiscard]] double snapshot() const override {
        return version_.load(std::memory_order_acquire);
    }
    [[nodiscard]] const std::vector<stream::EpochDelta<double>>& deltas()
        const {
        return deltas_;
    }

private:
    const char* name_;
    std::vector<std::string>* order_;
    std::vector<stream::EpochDelta<double>> deltas_;
    std::atomic<double> version_{-1.0};
};

TEST(AnalyticsHub, DispatchesInRegistrationOrderAndAccountsStats) {
    std::vector<std::string> order;
    analytics::AnalyticsHub<double> hub;
    auto& a = hub.emplace<Recorder>("a", &order);
    auto& b = hub.emplace<Recorder>("b", &order);
    ASSERT_EQ(hub.size(), 2u);

    stream::EpochDelta<double> delta;
    delta.version = 7;
    delta.adds = {{1, 2, 3.0}};
    hub.on_epoch(delta);
    delta.version = 8;
    hub.on_epoch(delta);

    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b"}));
    EXPECT_EQ(a.deltas().size(), 2u);
    EXPECT_EQ(b.deltas().size(), 2u);
    EXPECT_EQ(a.deltas()[0].adds.size(), 1u);
    EXPECT_DOUBLE_EQ(a.snapshot(), 8.0);
    EXPECT_EQ(hub.stats(0).epochs, 2u);
    EXPECT_EQ(hub.stats(1).epochs, 2u);
    EXPECT_GE(hub.stats(0).total_ms, 0.0);
    EXPECT_GE(hub.stats(0).max_ms, 0.0);

    const auto snaps = hub.snapshots();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].first, "a");
    EXPECT_DOUBLE_EQ(snaps[1].second, 8.0);
}

// The engine invokes an attached hub at every APPLIED epoch — after the ops
// hit the matrix, with this rank's drained ops partitioned by kind — and
// never for globally empty epochs.
TEST(AnalyticsHub, EngineHookFiresPerAppliedEpochWithPartitionedDelta) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 32;
        core::DistDynamicMatrix<double> A(grid, n, n);
        Engine engine(A);

        analytics::AnalyticsHub<double> hub;
        auto& rec = hub.emplace<Recorder>("rec", nullptr);
        hub.attach(engine);

        const auto r = static_cast<index_t>(comm.rank());
        auto& q = engine.queue();
        ASSERT_TRUE(q.push({OpKind::Add, {r, 0, 1.0}}));
        ASSERT_TRUE(q.push({OpKind::Add, {r, 1, 1.0}}));
        ASSERT_TRUE(q.push({OpKind::Merge, {r, 0, 5.0}}));
        ASSERT_TRUE(q.push({OpKind::Mask, {r, 1, 0.0}}));
        EXPECT_TRUE(engine.pump());  // deadline epoch applies everything

        // A globally empty epoch must not reach the hub.
        q.close();
        while (engine.pump()) {
        }

        ASSERT_EQ(rec.deltas().size(), 1u);
        const auto& d = rec.deltas()[0];
        EXPECT_EQ(d.version, 1u);
        EXPECT_EQ(d.global_ops, 4u * kRanks);
        ASSERT_EQ(d.adds.size(), 2u);
        EXPECT_EQ(d.adds[0], (Triple<double>{r, 0, 1.0}));
        ASSERT_EQ(d.merges.size(), 1u);
        EXPECT_EQ(d.merges[0], (Triple<double>{r, 0, 5.0}));
        ASSERT_EQ(d.masks.size(), 1u);
        EXPECT_EQ(rec.deltas().size(), engine.stats().applied_epochs);

        // The hook observed the POST-apply matrix version.
        const auto version =
            engine.with_snapshot([](auto snap) { return snap.version(); });
        EXPECT_EQ(version, 1u);
    });
}

// ---------------------------------------------------------------------------
// The acceptance property. A MirrorChecker maintainer registers LAST in the
// hub, so at every applied epoch it runs after the live maintainers. It
// allgathers the epoch's ops from all ranks, applies the engine's ordering
// contract (all ADDs, then all MASKs) to replicated from-scratch mirrors,
// and asserts each maintainer's published value and underlying distributed
// state equal the mirror-derived recomputation.
// ---------------------------------------------------------------------------

std::uint64_t pair_key(index_t i, index_t j) {
    return (static_cast<std::uint64_t>(i) << 32) |
           static_cast<std::uint64_t>(j);
}

class MirrorChecker final : public analytics::Maintainer<double> {
public:
    MirrorChecker(par::Comm& comm,
                  const analytics::LiveTriangleMaintainer& tri,
                  const analytics::LiveDistanceMaintainer& dist,
                  const analytics::LiveContractionMaintainer& contr,
                  std::vector<index_t> sources,
                  std::vector<index_t> assignment)
        : comm_(comm),
          tri_(tri),
          dist_(dist),
          contr_(contr),
          sources_(std::move(sources)),
          assignment_(std::move(assignment)) {}

    [[nodiscard]] const char* name() const override { return "checker"; }
    [[nodiscard]] double snapshot() const override {
        return static_cast<double>(checked_.load(std::memory_order_acquire));
    }

    void on_epoch(const stream::EpochDelta<double>& delta) override {
        // Replicate the epoch identically on every rank.
        par::Buffer mine;
        par::BufferWriter w(mine);
        w.write_vector(delta.adds);
        w.write_vector(delta.masks);
        auto all = comm_.allgather(std::move(mine));
        std::vector<Triple<double>> adds, masks;
        for (auto& buf : all) {
            par::BufferReader r(buf);
            auto a = r.read_vector<Triple<double>>();
            auto m = r.read_vector<Triple<double>>();
            adds.insert(adds.end(), a.begin(), a.end());
            masks.insert(masks.end(), m.begin(), m.end());
        }

        // The engine's ordering contract: the epoch's ADDs apply before its
        // MASKs, so a MASK wins over same-epoch ADDs of the same edge.
        for (const auto& t : adds) {
            if (t.row != t.col)
                edges_.insert(pair_key(std::min(t.row, t.col),
                                       std::max(t.row, t.col)));
            auto [it, fresh] = weights_.try_emplace({t.row, t.col}, t.value);
            if (!fresh) it->second = std::min(it->second, t.value);
            cells_[{assignment_[static_cast<std::size_t>(t.row)],
                    assignment_[static_cast<std::size_t>(t.col)]}] += t.value;
        }
        for (const auto& t : masks)
            if (t.row != t.col)
                edges_.erase(pair_key(std::min(t.row, t.col),
                                      std::max(t.row, t.col)));

        verify_triangles();
        verify_distances();
        verify_contraction();
        checked_.fetch_add(1, std::memory_order_release);
    }

private:
    void verify_triangles() {
        // From-scratch count: once per triangle, via its lexicographically
        // smallest edge.
        std::map<index_t, std::set<index_t>> adj;
        for (const auto key : edges_) {
            const auto i = static_cast<index_t>(key >> 32);
            const auto j = static_cast<index_t>(key & 0xffffffffu);
            adj[i].insert(j);
            adj[j].insert(i);
        }
        std::size_t expected = 0;
        for (const auto key : edges_) {
            const auto i = static_cast<index_t>(key >> 32);
            const auto j = static_cast<index_t>(key & 0xffffffffu);
            for (const index_t k : adj[i])
                if (k > j && adj[j].count(k) > 0) ++expected;
        }
        EXPECT_DOUBLE_EQ(tri_.snapshot(), static_cast<double>(expected));

        // The maintained adjacency IS the stream-induced graph.
        CoordMap expect_adj;
        for (const auto key : edges_) {
            const auto i = static_cast<index_t>(key >> 32);
            const auto j = static_cast<index_t>(key & 0xffffffffu);
            expect_adj[{i, j}] = 1.0;
            expect_adj[{j, i}] = 1.0;
        }
        test::expect_matches_exactly(tri_.counter().adjacency(), expect_adj);

        // C = A·A exactly: every two-path counted, and no stored zero left
        // behind by cancelled entries.
        CoordMap expect_square;
        for (const auto& [i, nbrs] : adj)
            for (const index_t k : nbrs)
                for (const index_t j : adj[k]) expect_square[{i, j}] += 1.0;
        test::expect_matches_exactly(tri_.counter().square(), expect_square);
    }

    void verify_distances() {
        CoordMap expect;
        double sum = 0.0;
        for (std::size_t s = 0; s < sources_.size(); ++s)
            for (const auto& [coord, wgt] : weights_)
                if (coord.first == sources_[s]) {
                    expect[{static_cast<index_t>(s), coord.second}] = wgt;
                    sum += wgt;
                }
        test::expect_matches_exactly(dist_.product().distances(), expect);
        EXPECT_NEAR(dist_.snapshot(), sum, 1e-6);
        EXPECT_EQ(dist_.reached_pairs(), expect.size());
    }

    void verify_contraction() {
        CoordMap expect;
        double total = 0.0;
        for (const auto& [cell, wgt] : cells_) {
            expect[cell] = wgt;
            total += wgt;
        }
        test::expect_matches(contr_.contraction().contracted(), expect, 1e-6);
        EXPECT_NEAR(contr_.snapshot(), total, 1e-6);
    }

    par::Comm& comm_;
    const analytics::LiveTriangleMaintainer& tri_;
    const analytics::LiveDistanceMaintainer& dist_;
    const analytics::LiveContractionMaintainer& contr_;
    std::vector<index_t> sources_;
    std::vector<index_t> assignment_;

    std::set<std::uint64_t> edges_;                          // undirected
    std::map<std::pair<index_t, index_t>, double> weights_;  // directed min
    std::map<std::pair<index_t, index_t>, double> cells_;    // cluster sums
    std::atomic<std::uint64_t> checked_{0};
};

TEST(LiveAnalytics, MatchFromScratchRecomputationAfterEveryEpoch) {
    constexpr int kProducers = 2;  // >= 2 concurrent producers per rank
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 40;
        const std::vector<index_t> sources = {0, 5, 11};
        std::vector<index_t> assignment(static_cast<std::size_t>(n));
        for (std::size_t v = 0; v < assignment.size(); ++v)
            assignment[v] = static_cast<index_t>(v % 6);

        core::DistDynamicMatrix<double> A(grid, n, n);
        analytics::AnalyticsHub<double> hub;
        auto& tri = hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);
        auto& dist =
            hub.emplace<analytics::LiveDistanceMaintainer>(grid, n, sources);
        auto& contr = hub.emplace<analytics::LiveContractionMaintainer>(
            grid, n, 6, assignment);
        auto& checker = hub.emplace<MirrorChecker>(comm, tri, dist, contr,
                                                   sources, assignment);

        // Mixed insert/delete traffic with frequent reads: the small n makes
        // duplicate coordinates, re-ADDs of live edges and MASKs of absent
        // edges common, which is exactly what the maintainers must absorb.
        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::AnalyticsRead;
        wl.n = n;
        wl.writes = 500;
        wl.window = 60;
        wl.read_fraction = 0.2;
        wl.seed = 1'234 + static_cast<std::uint64_t>(comm.rank());

        stream::EngineConfig cfg;
        cfg.queue_capacity = 512;
        cfg.epoch_batch = 256;
        cfg.epoch_deadline = std::chrono::milliseconds(3);
        Engine engine(A, cfg);
        hub.attach(engine);
        for (int prod = 0; prod < kProducers; ++prod)
            engine.queue().register_producer();

        std::vector<std::thread> producers;
        for (int prod = 0; prod < kProducers; ++prod) {
            producers.emplace_back([&, prod] {
                stream::drive_producer(
                    engine, stream::WorkloadProducer(wl, prod),
                    [&](index_t, index_t) {
                        // Concurrent snapshot readers polling derived values
                        // under sustained ingestion.
                        (void)tri.snapshot();
                        (void)dist.snapshot();
                        (void)contr.snapshot();
                    });
            });
        }
        engine.run();
        for (auto& t : producers) t.join();

        // Every applied epoch was verified, and there were several.
        EXPECT_EQ(static_cast<std::uint64_t>(checker.snapshot()),
                  engine.stats().applied_epochs);
        EXPECT_GE(engine.stats().applied_epochs, 2u)
            << "traffic should span multiple epochs";
        EXPECT_EQ(engine.stats().local_ops,
                  static_cast<std::uint64_t>(kProducers) * wl.writes);
        for (std::size_t k = 0; k < hub.size(); ++k)
            EXPECT_EQ(hub.stats(k).epochs, engine.stats().applied_epochs);
    });
}

}  // namespace
