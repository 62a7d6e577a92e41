/**
 * @file
 * Differential tests for CycleBucketQueue (common/cycle_queue.h): it
 * must pop in exactly the (delivered, seq) order of a binary-heap
 * reference, across the ring horizon, for entries pushed behind the
 * base, and through a kCycleNever drain.
 */

#include <gtest/gtest.h>
#include <queue>
#include <vector>

#include "common/cycle_queue.h"

using namespace cyclops;

namespace
{

struct Entry
{
    Cycle delivered = 0;
    u64 seq = 0;
};

struct Later
{
    bool
    operator()(const Entry &a, const Entry &b) const
    {
        if (a.delivered != b.delivered)
            return a.delivered > b.delivered;
        return a.seq > b.seq;
    }
};

using Reference = std::priority_queue<Entry, std::vector<Entry>, Later>;

/** Pop both queues up to @p upTo and require identical sequences. */
template <class Q>
void
popBoth(Q &q, Reference &ref, Cycle upTo)
{
    std::vector<Entry> got;
    q.popUpTo(upTo, [&got](const Entry &e) { got.push_back(e); });
    std::vector<Entry> want;
    while (!ref.empty() && ref.top().delivered <= upTo) {
        want.push_back(ref.top());
        ref.pop();
    }
    ASSERT_EQ(got.size(), want.size()) << "upTo " << upTo;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].delivered, want[i].delivered)
            << "upTo " << upTo << " entry " << i;
        ASSERT_EQ(got[i].seq, want[i].seq)
            << "upTo " << upTo << " entry " << i;
    }
    ASSERT_EQ(q.size(), ref.size());
}

template <u32 kBuckets>
void
randomDifferential(u64 seed)
{
    CycleBucketQueue<Entry, kBuckets> q;
    Reference ref;
    u64 seq = 0;
    Cycle now = 0;
    auto next = [&seed] {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        return seed >> 17;
    };
    auto push = [&](Cycle delivered) {
        const Entry e{delivered, seq++};
        q.push(e);
        ref.push(e);
    };
    for (u32 round = 0; round < 3000; ++round) {
        const u32 burst = u32(next() % 5);
        for (u32 i = 0; i < burst; ++i) {
            switch (next() % 8) {
            case 0: // beyond the horizon
                push(now + kBuckets + next() % (3 * kBuckets));
                break;
            case 1: // behind the last pop
                push(now > 8 ? now - next() % 8 : now);
                break;
            case 2: // the horizon's edge: ties across near and far
                push(now + kBuckets - 2 + next() % 4);
                break;
            default:
                push(now + next() % 16);
                break;
            }
        }
        Cycle upTo = now;
        switch (next() % 10) {
        case 0: upTo = now + 2 * kBuckets + next() % kBuckets; break;
        case 1: upTo = now > 4 ? now - 4 : 0; break; // behind the base
        default: upTo = now + next() % 6; break;
        }
        popBoth(q, ref, upTo);
        if (::testing::Test::HasFatalFailure())
            return;
        now = std::max(now, upTo) + next() % 3;
    }
    popBoth(q, ref, kCycleNever);
    EXPECT_TRUE(q.empty());

    // After the drain the queue keeps working, near and far.
    for (u32 i = 0; i < 64; ++i)
        push(now + next() % (2 * kBuckets));
    popBoth(q, ref, now + kBuckets / 2);
    popBoth(q, ref, kCycleNever);
    EXPECT_TRUE(q.empty());
}

} // namespace

TEST(CycleBucketQueue, MatchesHeapReferenceSmallRing)
{
    for (u64 seed : {1ull, 2ull, 0x9E3779B97F4A7C15ull})
        randomDifferential<16>(seed);
}

TEST(CycleBucketQueue, MatchesHeapReferenceProductionRing)
{
    for (u64 seed : {3ull, 0x243F6A8885A308D3ull})
        randomDifferential<512>(seed);
}

TEST(CycleBucketQueue, DrainBeforeAnyPopEmptiesTheRing)
{
    CycleBucketQueue<Entry, 8> q;
    q.push({3, 0});
    q.push({30, 1});
    std::vector<u64> order;
    q.popUpTo(kCycleNever,
              [&order](const Entry &e) { order.push_back(e.seq); });
    EXPECT_EQ(order, (std::vector<u64>{0, 1}));
    EXPECT_TRUE(q.empty());
}

TEST(CycleBucketQueue, FarEntryPrecedesLaterSameCycleNearEntry)
{
    // seq 0 is pushed beyond the horizon (far); once the base moves,
    // seq 1 and 2 land on the same cycle in the ring. The far entry
    // was injected first, so it must pop first.
    CycleBucketQueue<Entry, 8> q;
    q.push({10, 0});
    q.popUpTo(5, [](const Entry &) { FAIL() << "nothing due yet"; });
    q.push({10, 1});
    q.push({9, 2});
    std::vector<u64> order;
    q.popUpTo(10, [&order](const Entry &e) { order.push_back(e.seq); });
    EXPECT_EQ(order, (std::vector<u64>{2, 0, 1}));
    EXPECT_TRUE(q.empty());
}
