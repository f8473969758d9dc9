// Stress tests of the message-passing runtime: high-volume randomized
// traffic, interleaved collectives on split communicators, large payloads,
// and repeated world construction — the failure modes a deadlock or a
// tag-matching bug would surface under.
#include <gtest/gtest.h>

#include <random>

#include "par/comm.hpp"

namespace {

using dsg::par::Buffer;
using dsg::par::Comm;
using dsg::par::CommStats;
using dsg::par::run_world;

Buffer payload(std::uint64_t value, std::size_t size) {
    Buffer b(size);
    for (std::size_t i = 0; i < size; ++i)
        b[i] = static_cast<std::byte>((value + i) & 0xff);
    return b;
}

bool check_payload(const Buffer& b, std::uint64_t value) {
    for (std::size_t i = 0; i < b.size(); ++i)
        if (b[i] != static_cast<std::byte>((value + i) & 0xff)) return false;
    return true;
}

TEST(CommStress, ManySmallMessagesAllPairs) {
    run_world(8, [&](Comm& c) {
        constexpr int kRounds = 25;
        for (int r = 0; r < kRounds; ++r) {
            for (int d = 0; d < c.size(); ++d)
                c.send(d, r % 7, payload(static_cast<std::uint64_t>(
                                             c.rank() * 1000 + r),
                                         32));
            for (int s = 0; s < c.size(); ++s) {
                const Buffer got = c.recv(s, r % 7);
                EXPECT_TRUE(check_payload(
                    got, static_cast<std::uint64_t>(s * 1000 + r)));
            }
        }
    });
}

TEST(CommStress, LargePayloadBroadcastAndReduce) {
    run_world(4, [&](Comm& c) {
        const std::size_t mb = 4 << 20;  // 4 MiB
        Buffer msg;
        if (c.rank() == 2) msg = payload(99, mb);
        const Buffer got = c.bcast(2, std::move(msg));
        ASSERT_EQ(got.size(), mb);
        EXPECT_TRUE(check_payload(got, 99));

        // Tree reduction of 1 MiB buffers (concatenating lengths).
        Buffer mine = payload(static_cast<std::uint64_t>(c.rank()), 1 << 20);
        Buffer out = c.reduce_merge(0, std::move(mine), [](Buffer a, Buffer b) {
            a.insert(a.end(), b.begin(), b.end());
            return a;
        });
        if (c.rank() == 0) {
            EXPECT_EQ(out.size(), std::size_t{4} << 20);
        }
    });
}

TEST(CommStress, InterleavedCollectivesOnRowAndColumnComms) {
    // The access pattern of the SpGEMM rounds: alternating broadcasts and
    // reductions on both sub-communicators of a 3x3 grid, many times.
    run_world(9, [&](Comm& c) {
        const int row = c.rank() / 3;
        const int col = c.rank() % 3;
        Comm rc = c.split(row, col);
        Comm cc = c.split(col, row);
        std::mt19937_64 rng(77);
        for (int round = 0; round < 30; ++round) {
            const int root = static_cast<int>(rng() % 3);
            Buffer rmsg;
            if (rc.rank() == root)
                rmsg = payload(static_cast<std::uint64_t>(row * 100 + round), 64);
            const Buffer rgot = rc.bcast(root, std::move(rmsg));
            EXPECT_TRUE(check_payload(
                rgot, static_cast<std::uint64_t>(row * 100 + round)));

            Buffer cmsg;
            if (cc.rank() == root)
                cmsg = payload(static_cast<std::uint64_t>(col * 100 + round), 64);
            const Buffer cgot = cc.bcast(root, std::move(cmsg));
            EXPECT_TRUE(check_payload(
                cgot, static_cast<std::uint64_t>(col * 100 + round)));

            Buffer acc(8, std::byte{1});
            Buffer red = cc.reduce_merge(root, std::move(acc),
                                         [](Buffer a, Buffer b) {
                                             a.insert(a.end(), b.begin(),
                                                      b.end());
                                             return a;
                                         });
            if (cc.rank() == root) {
                EXPECT_EQ(red.size(), 24u);
            }
        }
    });
}

TEST(CommStress, RandomizedAlltoallvVolumes) {
    run_world(6, [&](Comm& c) {
        std::mt19937_64 rng(10 + static_cast<std::uint64_t>(c.rank()));
        for (int round = 0; round < 10; ++round) {
            std::vector<Buffer> send(6);
            for (int d = 0; d < 6; ++d) {
                // Deterministic size both sides can compute: depends only on
                // (source, dest, round).
                const std::size_t size =
                    ((static_cast<std::size_t>(c.rank()) * 31 +
                      static_cast<std::size_t>(d) * 17 +
                      static_cast<std::size_t>(round)) %
                     257) +
                    1;
                send[static_cast<std::size_t>(d)] = payload(
                    static_cast<std::uint64_t>(c.rank() * 7 + d), size);
            }
            auto recv = c.alltoallv(std::move(send));
            for (int s = 0; s < 6; ++s) {
                const std::size_t expect_size =
                    ((static_cast<std::size_t>(s) * 31 +
                      static_cast<std::size_t>(c.rank()) * 17 +
                      static_cast<std::size_t>(round)) %
                     257) +
                    1;
                ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), expect_size);
                EXPECT_TRUE(check_payload(
                    recv[static_cast<std::size_t>(s)],
                    static_cast<std::uint64_t>(s * 7 + c.rank())));
            }
        }
    });
}

// A non-commutative merge: the reduced buffer records the merge order.
Buffer concat(Buffer a, Buffer b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

// Contribution of `rank` to the k-th reduction: the bytes (k, rank).
Buffer contribution(int k, int rank) {
    return {static_cast<std::byte>(k), static_cast<std::byte>(rank)};
}

// Posted reductions, many in flight with varying roots and blocking bcasts
// interleaved between posts (the Algorithm 2 round shape), completed in post
// order. Interior tree nodes exist from 4 ranks on; 5 and 6 have several.
// Result bytes — hence merge order — and the volume counters must equal
// those of the same sequence run through blocking reduce_merge, and the
// post/wait counters must account for every reduction.
TEST(CommStress, PostedReductionsMatchBlockingInOrderAndVolume) {
    for (const int p : {3, 5, 6}) {
        const int n = 4 * p;
        auto root_of = [&](int k) { return (2 * k + k / p) % p; };
        std::vector<std::vector<Buffer>> blocking(static_cast<std::size_t>(p));
        std::vector<std::vector<Buffer>> posted(static_cast<std::size_t>(p));
        CommStats::Snapshot s0{}, s1{}, s2{};
        run_world(p, [&](Comm& c) {
            auto& mine_blocking = blocking[static_cast<std::size_t>(c.rank())];
            auto& mine_posted = posted[static_cast<std::size_t>(c.rank())];
            auto interleaved_bcast = [&](int k) {
                if (k % 2 != 0) return;
                Buffer msg;
                if (c.rank() == root_of(k)) msg = contribution(k, c.rank());
                EXPECT_EQ(c.bcast(root_of(k), std::move(msg)),
                          contribution(k, root_of(k)));
            };
            c.barrier();
            if (c.rank() == 0) s0 = c.stats().snapshot();
            c.barrier();
            for (int k = 0; k < n; ++k) {
                mine_blocking.push_back(c.reduce_merge(
                    root_of(k), contribution(k, c.rank()), concat));
                interleaved_bcast(k);
            }
            c.barrier();
            if (c.rank() == 0) s1 = c.stats().snapshot();
            c.barrier();
            std::vector<Comm::PendingReduce> pending;
            for (int k = 0; k < n; ++k) {
                pending.push_back(
                    c.ireduce_merge(root_of(k), contribution(k, c.rank())));
                interleaved_bcast(k);
            }
            for (auto& h : pending) mine_posted.push_back(h.wait(concat));
            c.barrier();
            if (c.rank() == 0) s2 = c.stats().snapshot();
        });
        for (int r = 0; r < p; ++r) {
            for (int k = 0; k < n; ++k) {
                const auto& got = posted[static_cast<std::size_t>(r)]
                                        [static_cast<std::size_t>(k)];
                EXPECT_EQ(got, blocking[static_cast<std::size_t>(r)]
                                       [static_cast<std::size_t>(k)])
                    << "p=" << p << " rank " << r << " reduction " << k;
                if (r != root_of(k)) {
                    EXPECT_TRUE(got.empty());
                    continue;
                }
                ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * p));
                std::vector<int> seen(static_cast<std::size_t>(p), 0);
                for (std::size_t x = 0; x < got.size(); x += 2) {
                    EXPECT_EQ(got[x], static_cast<std::byte>(k));
                    ++seen[static_cast<std::size_t>(got[x + 1])];
                }
                EXPECT_EQ(seen,
                          std::vector<int>(static_cast<std::size_t>(p), 1));
            }
        }
        EXPECT_EQ(s1.reduce_bytes - s0.reduce_bytes,
                  s2.reduce_bytes - s1.reduce_bytes);
        EXPECT_EQ(s1.p2p_messages - s0.p2p_messages,
                  s2.p2p_messages - s1.p2p_messages);
        EXPECT_EQ(s1.collectives - s0.collectives,
                  s2.collectives - s1.collectives);
        EXPECT_GT(s1.reduce_bytes - s0.reduce_bytes, 0u);
        // Every rank posts and waits each reduction once, blocking form
        // included (it is a post followed by a wait).
        const auto reductions = static_cast<std::uint64_t>(p * n);
        EXPECT_EQ(s1.async_posted - s0.async_posted, reductions);
        EXPECT_EQ(s1.async_completed - s0.async_completed, reductions);
        EXPECT_EQ(s2.async_posted - s1.async_posted, reductions);
        EXPECT_EQ(s2.async_completed - s1.async_completed, reductions);
    }
}

// Relative rank p - 1 has no children in the binomial tree, so its post
// forwards at once. Each peer blocks on a go signal the leaf sends only after
// its post has returned, so the post cannot have waited on a peer, and the
// world's counters move during the post only by the leaf's own forward.
TEST(CommStress, LeafPostReturnsBeforeAnyPeerPosts) {
    constexpr int kGo = 3;
    for (const int p : {3, 5, 6}) {
        run_world(p, [&](Comm& c) {
            for (int root = 0; root < p; ++root) {
                const int leaf = (root + p - 1) % p;
                Buffer mine = contribution(root, c.rank());
                c.barrier();  // the previous root's traffic has all landed
                if (c.rank() == leaf) {
                    const auto before = c.stats().snapshot();
                    auto pending = c.ireduce_merge(root, std::move(mine));
                    const auto after = c.stats().snapshot();
                    EXPECT_EQ(after.p2p_messages - before.p2p_messages, 1u);
                    EXPECT_EQ(after.reduce_bytes - before.reduce_bytes, 2u);
                    // Posted, not yet waited: the counters show it in flight.
                    EXPECT_EQ(after.async_posted - before.async_posted, 1u);
                    EXPECT_EQ(after.async_completed, before.async_completed);
                    for (int d = 0; d < p; ++d)
                        if (d != leaf) c.send(d, kGo, Buffer{});
                    EXPECT_TRUE(pending.wait(concat).empty());
                    continue;
                }
                (void)c.recv(leaf, kGo);
                Buffer out =
                    c.ireduce_merge(root, std::move(mine)).wait(concat);
                if (c.rank() != root) continue;
                ASSERT_EQ(out.size(), static_cast<std::size_t>(2 * p));
                bool has_leaf = false;
                for (std::size_t x = 1; x < out.size(); x += 2)
                    has_leaf |= out[x] == static_cast<std::byte>(leaf);
                EXPECT_TRUE(has_leaf);
            }
        });
    }
}

TEST(CommStress, RepeatedWorldsDoNotLeakState) {
    for (int iter = 0; iter < 20; ++iter) {
        run_world(4, [&](Comm& c) {
            const int sum = c.allreduce<int>(c.rank(), [](int a, int b) {
                return a + b;
            });
            EXPECT_EQ(sum, 6);
        });
    }
}

TEST(CommStress, ReduceMergeEveryRootEveryWorldSize) {
    for (int p : {2, 3, 5, 8}) {
        run_world(p, [&](Comm& c) {
            for (int root = 0; root < p; ++root) {
                Buffer mine(1, static_cast<std::byte>(c.rank()));
                Buffer out = c.reduce_merge(root, std::move(mine),
                                            [](Buffer a, Buffer b) {
                                                a.insert(a.end(), b.begin(),
                                                         b.end());
                                                return a;
                                            });
                if (c.rank() == root) {
                    long long sum = 0;
                    for (auto byte : out) sum += static_cast<int>(byte);
                    EXPECT_EQ(sum, static_cast<long long>(p) * (p - 1) / 2);
                }
            }
        });
    }
}

}  // namespace
