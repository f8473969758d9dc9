// QueryExecutor tests: typed query evaluation, the cached fast path,
// admission control (bounded pending queue sheds with counted rejections),
// deadline expiry, and the background dispatcher under concurrent
// submitters (the TSan-exercised part).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "common/grid_shapes.hpp"
#include "analytics/maintainer.hpp"
#include "par/comm.hpp"
#include "serve/query_executor.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/epoch_engine.hpp"

namespace {

using namespace dsg;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;
using sparse::index_t;
using sparse::Triple;
using serve::Query;
using serve::QueryKind;
using serve::QueryResult;
using serve::QueryStatus;
using stream::OpKind;
using dsg::test::GridCase;

constexpr int kRanks = 4;  // 2x2 grid
constexpr index_t kN = 64;

/// Publishes one snapshot of a known graph into `store`: a directed path
/// 0->1->...->15, a star 0->{32..39} with value j at (0, j), and the extra
/// edge 1->3 closing the triangle {1,2,3} for the analytics maintainer.
void populate(serve::SnapshotStore<double>& store, bool with_hub,
              const GridCase& gc = {2, 2}) {
    par::run_world(gc.p(), [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        auto pool = dsg::test::make_pool(gc);
        core::DistDynamicMatrix<double> A(grid, kN, kN);

        analytics::AnalyticsHub<double> hub;
        if (with_hub)
            hub.emplace<analytics::LiveTriangleMaintainer>(grid, kN);

        stream::EngineConfig cfg;
        cfg.pool = pool.get();
        cfg.epoch_batch = 1 << 12;
        Engine engine(A, cfg);
        if (with_hub) hub.attach(engine);
        store.attach(engine, A, with_hub ? &hub : nullptr);

        if (comm.rank() == 0) {
            for (index_t v = 0; v + 1 < 16; ++v)
                ASSERT_TRUE(engine.queue().push({OpKind::Add, {v, v + 1, 1.0}}));
            for (index_t j = 32; j < 40; ++j)
                ASSERT_TRUE(engine.queue().push(
                    {OpKind::Add, {0, j, static_cast<double>(j)}}));
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {1, 3, 1.0}}));
        }
        engine.queue().close();
        engine.run();
    });
}

class QueryExecutorG : public ::testing::TestWithParam<GridCase> {};

TEST_P(QueryExecutorG, AnswersEachQueryKind) {
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    serve::SnapshotStore<double> store(scfg);
    populate(store, /*with_hub=*/true, GetParam());

    serve::ExecutorConfig ecfg;
    ecfg.background = false;
    serve::QueryExecutor<double> ex(store, ecfg);

    auto r = ex.execute({QueryKind::EdgeExists, 0, 1, 1, ""});
    EXPECT_EQ(r.status, QueryStatus::Ok);
    EXPECT_DOUBLE_EQ(r.value, 1.0);
    r = ex.execute({QueryKind::EdgeExists, 1, 0, 1, ""});  // directed: absent
    EXPECT_EQ(r.status, QueryStatus::Ok);
    EXPECT_DOUBLE_EQ(r.value, 0.0);

    // Row 0: edge to 1 plus the 8 star edges.
    r = ex.execute({QueryKind::Degree, 0, 0, 1, ""});
    EXPECT_DOUBLE_EQ(r.value, 9.0);
    // Row 1: edges to 2 and 3.
    r = ex.execute({QueryKind::Degree, 1, 0, 1, ""});
    EXPECT_DOUBLE_EQ(r.value, 2.0);

    // 1 hop from 0: {1, 32..39} = 9; 2 hops adds {2, 3} (via 1) = 11.
    r = ex.execute({QueryKind::KHop, 0, 0, 1, ""});
    EXPECT_DOUBLE_EQ(r.value, 9.0);
    r = ex.execute({QueryKind::KHop, 0, 0, 2, ""});
    EXPECT_DOUBLE_EQ(r.value, 11.0);

    r = ex.execute({QueryKind::AnalyticsRead, 0, 0, 1, "triangles"});
    EXPECT_EQ(r.status, QueryStatus::Ok);
    EXPECT_DOUBLE_EQ(r.value, 1.0);  // {1,2,3}
    r = ex.execute({QueryKind::AnalyticsRead, 0, 0, 1, "no-such-metric"});
    EXPECT_EQ(r.status, QueryStatus::NotFound);

    EXPECT_EQ(ex.stats(QueryKind::EdgeExists).ok, 2u);
    EXPECT_EQ(ex.stats(QueryKind::AnalyticsRead).not_found, 1u);
    EXPECT_GT(ex.stats(QueryKind::KHop).max_us, 0.0);
}

TEST(QueryExecutor, NoSnapshotBeforeFirstPublication) {
    serve::SnapshotStore<double> store;  // never attached, nothing published
    serve::ExecutorConfig ecfg;
    ecfg.background = false;
    serve::QueryExecutor<double> ex(store, ecfg);
    const auto r = ex.execute({QueryKind::Degree, 0, 0, 1, ""});
    EXPECT_EQ(r.status, QueryStatus::NoSnapshot);
    EXPECT_EQ(ex.stats(QueryKind::Degree).no_snapshot, 1u);
}

TEST(QueryExecutor, CacheHitOnRepeatAndInvalidationByVersionKeying) {
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    serve::SnapshotStore<double> store(scfg);
    serve::ResultCache cache;
    store.set_cache(&cache);
    populate(store, /*with_hub=*/false);

    serve::ExecutorConfig ecfg;
    ecfg.background = false;
    ecfg.cache = &cache;
    serve::QueryExecutor<double> ex(store, ecfg);

    const Query q{QueryKind::KHop, 0, 0, 2, ""};
    auto r1 = ex.execute(q);
    EXPECT_FALSE(r1.cache_hit);
    auto r2 = ex.execute(q);
    EXPECT_TRUE(r2.cache_hit);
    EXPECT_DOUBLE_EQ(r2.value, r1.value);
    EXPECT_EQ(r2.version, r1.version);
    EXPECT_EQ(ex.stats(QueryKind::KHop).cache_hits, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().inserts, 1u);

    // A submit whose answer is cached completes inline as a hit.
    auto fut = ex.submit(q);
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(fut.get().cache_hit);

    // Different query fields fingerprint differently.
    auto r3 = ex.execute({QueryKind::KHop, 0, 0, 3, ""});
    EXPECT_FALSE(r3.cache_hit);
}

TEST(QueryExecutor, OverloadSheddingCountsRejections) {
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    serve::SnapshotStore<double> store(scfg);
    populate(store, /*with_hub=*/false);

    serve::ExecutorConfig ecfg;
    ecfg.background = false;  // nothing drains until we say so
    ecfg.pending_capacity = 4;
    serve::QueryExecutor<double> ex(store, ecfg);

    std::vector<std::future<QueryResult>> futures;
    for (index_t k = 0; k < 10; ++k)
        futures.push_back(ex.submit({QueryKind::Degree, k % kN, 0, 1, ""}));

    // The first 4 were admitted; the remaining 6 shed immediately.
    EXPECT_EQ(ex.pending(), 4u);
    EXPECT_EQ(ex.shed_total(), 6u);
    std::size_t shed = 0, deferred = 0;
    for (auto& f : futures) {
        if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
            EXPECT_EQ(f.get().status, QueryStatus::Shed);
            ++shed;
        } else {
            ++deferred;
        }
    }
    EXPECT_EQ(shed, 6u);
    EXPECT_EQ(deferred, 4u);

    // Draining completes the admitted tail successfully.
    EXPECT_EQ(ex.drain(), 4u);
    std::size_t ok = 0;
    for (auto& f : futures)
        if (f.valid() &&
            f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
            ++ok;
    EXPECT_EQ(ok, futures.size() - shed);
    EXPECT_EQ(ex.stats(QueryKind::Degree).ok, 4u);
    EXPECT_EQ(ex.stats(QueryKind::Degree).shed, 6u);
}

TEST(QueryExecutor, DeadlineExpiryNeverExecutes) {
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    serve::SnapshotStore<double> store(scfg);
    populate(store, /*with_hub=*/false);

    serve::ExecutorConfig ecfg;
    ecfg.background = false;
    ecfg.deadline = std::chrono::milliseconds(1);
    serve::QueryExecutor<double> ex(store, ecfg);

    auto f1 = ex.submit({QueryKind::KHop, 0, 0, 2, ""});
    auto f2 = ex.submit({QueryKind::Degree, 0, 0, 1, ""});
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(ex.drain(), 2u);
    EXPECT_EQ(f1.get().status, QueryStatus::Expired);
    EXPECT_EQ(f2.get().status, QueryStatus::Expired);
    EXPECT_EQ(ex.stats(QueryKind::KHop).expired, 1u);
    EXPECT_EQ(ex.stats(QueryKind::Degree).expired, 1u);
}

// The TSan-exercised part: many submitter threads against the background
// dispatcher (with a shared pool and cache), every future fulfilled.
TEST(QueryExecutor, BackgroundDispatcherServesConcurrentSubmitters) {
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    serve::SnapshotStore<double> store(scfg);
    serve::ResultCache cache;
    store.set_cache(&cache);
    populate(store, /*with_hub=*/false);

    par::ThreadPool pool(2);
    serve::ExecutorConfig ecfg;
    ecfg.pending_capacity = 256;
    ecfg.deadline = std::chrono::seconds(10);  // no flaky expiries
    ecfg.pool = &pool;
    ecfg.cache = &cache;
    serve::QueryExecutor<double> ex(store, ecfg);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    std::atomic<std::uint64_t> ok{0}, shed{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
        submitters.emplace_back([&, w] {
            for (int k = 0; k < kPerThread; ++k) {
                Query q;
                switch ((w + k) % 3) {
                    case 0:
                        q = {QueryKind::EdgeExists,
                             static_cast<index_t>(k % kN),
                             static_cast<index_t>((k + 1) % kN), 1, ""};
                        break;
                    case 1:
                        q = {QueryKind::Degree, static_cast<index_t>(k % kN),
                             0, 1, ""};
                        break;
                    default:
                        q = {QueryKind::KHop, static_cast<index_t>(k % 16), 0,
                             2, ""};
                        break;
                }
                auto r = ex.submit(std::move(q)).get();
                if (r.status == QueryStatus::Ok)
                    ok.fetch_add(1, std::memory_order_relaxed);
                else if (r.status == QueryStatus::Shed)
                    shed.fetch_add(1, std::memory_order_relaxed);
                else
                    ADD_FAILURE() << "unexpected status "
                                  << serve::query_status_name(r.status);
            }
        });
    }
    for (auto& t : submitters) t.join();
    ex.stop();

    EXPECT_EQ(ok.load() + shed.load(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_GT(ok.load(), 0u);
    EXPECT_GT(cache.stats().hits, 0u) << "repeated keys should hit";
}

TEST(QueryExecutor, FingerprintIsStableAndFieldSensitive) {
    const Query a{QueryKind::KHop, 3, 0, 2, ""};
    const Query b{QueryKind::KHop, 3, 0, 2, ""};
    EXPECT_EQ(serve::fingerprint(a), serve::fingerprint(b));
    EXPECT_NE(serve::fingerprint(a),
              serve::fingerprint({QueryKind::KHop, 3, 0, 3, ""}));
    EXPECT_NE(serve::fingerprint(a),
              serve::fingerprint({QueryKind::Degree, 3, 0, 2, ""}));
    EXPECT_NE(serve::fingerprint({QueryKind::AnalyticsRead, 0, 0, 1, "a"}),
              serve::fingerprint({QueryKind::AnalyticsRead, 0, 0, 1, "b"}));
}

INSTANTIATE_TEST_SUITE_P(GridShapes, QueryExecutorG,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
