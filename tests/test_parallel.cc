/**
 * @file
 * Unit tests for the conservative PDES kernel (sim/parallel.hh): the
 * sense-reversing barrier, the foreign-event merge order of the
 * event queue, the parallel engine's trajectory equivalence with
 * serial execution on synthetic cross-partition workloads, the
 * one-barrier round protocol's edge cases, and the weighted tile
 * cut (sys::partitionTiles).
 *
 * These are the tests the CI TSan job runs: every cross-thread
 * interaction of the engine (mailboxes, published ticks, barriers,
 * clock alignment) is exercised here with real spawned threads.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/parallel.hh"
#include "system/system.hh"

namespace misar {
namespace {

TEST(SpinBarrier, RendezvousAcrossRounds)
{
    constexpr unsigned N = 4, rounds = 2000;
    SpinBarrier bar(N);
    // Padded slots so the check is about ordering, not false sharing.
    std::vector<std::uint64_t> slot(N * 16, 0);
    std::atomic<bool> mismatch{false};
    auto body = [&](unsigned me) {
        for (unsigned r = 0; r < rounds; ++r) {
            slot[me * 16] = r + 1;
            bar.arriveAndWait();
            // Everyone published r+1 before anyone passed the barrier.
            for (unsigned o = 0; o < N; ++o)
                if (slot[o * 16] != r + 1)
                    mismatch = true;
            bar.arriveAndWait();
        }
    };
    std::vector<std::thread> ts;
    for (unsigned i = 1; i < N; ++i)
        ts.emplace_back(body, i);
    body(0);
    for (auto &t : ts)
        t.join();
    EXPECT_FALSE(mismatch.load());
}

TEST(ForeignMerge, SenderKeyOrdersSameTickCell)
{
    // A (tick, lane) cell that received cross-partition deliveries
    // must execute in (sendTick, senderLane) order regardless of
    // host-side insertion order — this is what makes the threaded
    // trajectory independent of which thread filled the mailbox
    // first.
    EventQueue eq;
    eq.setNumLanes(4);
    std::vector<int> order;
    eq.scheduleAtL(2, 5, [&] { order.push_back(1); }); // key (0, 0)
    eq.insertForeign(2, 5, 3, 1, [&] { order.push_back(2); }); // (3, 1)
    eq.insertForeign(2, 5, 0, 1, [&] { order.push_back(3); }); // (0, 1)
    eq.runUntil(5);
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(ForeignMerge, SameTickDeliveryAfterClockAlignmentIsLegal)
{
    // The engine aligns every clock to the window tick T and then
    // drains mailboxes, so a delivery with when == now() must insert
    // (it has not run yet: runTick comes after the drain).
    EventQueue eq;
    eq.setNumLanes(3);
    eq.advanceTo(7);
    bool ran = false;
    eq.insertForeign(1, 7, 6, 2, [&] { ran = true; });
    eq.runTick(7);
    EXPECT_TRUE(ran);
}

/**
 * Synthetic two-tile mesh: lane 0 = global, lane 1 + t = tile t.
 * The same workload is driven through a single serial queue or a
 * global + two partition queues; the per-lane logs must agree.
 *
 * Per-lane logs are data-race free under the engine by construction:
 * a lane is only ever executed by its owning partition's thread, and
 * the global lane only by the master with the workers parked.
 */
struct Mesh
{
    EventQueue *q[3];
    struct Entry
    {
        Tick tick;
        int tag;
        bool operator==(const Entry &o) const
        {
            return tick == o.tick && tag == o.tag;
        }
    };
    std::vector<Entry> log[3];

    void
    seed()
    {
        for (unsigned lane = 1; lane <= 2; ++lane)
            q[lane]->scheduleAtL(lane, 1,
                                 [this, lane] { tile(lane, 0); });
    }

    void
    tile(unsigned lane, int depth)
    {
        log[lane].push_back({q[lane]->now(), depth});
        if (depth >= 9)
            return;
        // Local follow-up on the same lane.
        q[lane]->scheduleL(lane, 1 + depth % 3,
                           [this, lane, depth] { tile(lane, depth + 1); });
        // Cross-tile send: >= 1 tick of latency (the lookahead), so
        // in the threaded run it rides a mailbox.
        const unsigned peer = lane == 1 ? 2u : 1u;
        q[lane]->scheduleCross(peer, 3, [this, peer, depth] {
            tile(peer, depth + 1);
        });
        // Occasionally notify the global lane (watchdog-style).
        if (depth % 4 == 0)
            q[lane]->scheduleCross(0, 2,
                                   [this, depth] { master(depth); });
    }

    void
    master(int depth)
    {
        log[0].push_back({q[0]->now(), depth});
        // Master-lane code may poke any tile directly (the workers
        // are parked and the clocks are aligned), exactly like the
        // fault injectors and samplers do through the TileRuntime.
        q[1]->scheduleL(1, 4, [this] { tile(1, 9); });
    }
};

TEST(Parallel, MatchesSerialTrajectory)
{
    // Serial reference: one queue spanning all three lanes.
    Mesh serial;
    EventQueue seq;
    seq.setNumLanes(3);
    serial.q[0] = serial.q[1] = serial.q[2] = &seq;
    serial.seed();
    seq.run();

    // Threaded: one partition per tile plus the master's global queue.
    Mesh par;
    EventQueue global, q1, q2;
    global.setNumLanes(3);
    q1.setNumLanes(3);
    q2.setNumLanes(3);
    par.q[0] = &global;
    par.q[1] = &q1;
    par.q[2] = &q2;
    par.seed();
    {
        ParallelEngine eng(global, {&q1, &q2}, {2, 0, 1});
        eng.drainAll();
        EXPECT_EQ(eng.pending(), 0u);
        EXPECT_GT(eng.crossEvents(), 0u);
        EXPECT_GT(eng.rounds(), 0u);
    }

    ASSERT_FALSE(serial.log[1].empty());
    for (unsigned lane = 0; lane < 3; ++lane)
        EXPECT_EQ(par.log[lane], serial.log[lane]) << "lane " << lane;
}

TEST(Parallel, ThreadedRunsAreRepeatable)
{
    // Two threaded runs of the same workload must produce identical
    // per-lane logs (run-to-run determinism for fixed N).
    auto runIt = [] {
        Mesh m;
        EventQueue global, q1, q2;
        global.setNumLanes(3);
        q1.setNumLanes(3);
        q2.setNumLanes(3);
        m.q[0] = &global;
        m.q[1] = &q1;
        m.q[2] = &q2;
        m.seed();
        ParallelEngine eng(global, {&q1, &q2}, {2, 0, 1});
        eng.drainAll();
        std::vector<std::vector<Mesh::Entry>> out;
        for (auto &l : m.log)
            out.push_back(std::move(l));
        return out;
    };
    EXPECT_EQ(runIt(), runIt());
}

TEST(Parallel, RunUntilStopsAtWindowBoundary)
{
    Mesh m;
    EventQueue global, q1, q2;
    global.setNumLanes(3);
    q1.setNumLanes(3);
    q2.setNumLanes(3);
    m.q[0] = &global;
    m.q[1] = &q1;
    m.q[2] = &q2;
    m.seed();
    ParallelEngine eng(global, {&q1, &q2}, {2, 0, 1});
    eng.runUntil(5);
    EXPECT_EQ(global.now(), 5u);
    EXPECT_EQ(q1.now(), 5u);
    EXPECT_EQ(q2.now(), 5u);
    for (unsigned lane = 0; lane < 3; ++lane)
        for (const Mesh::Entry &e : m.log[lane])
            EXPECT_LE(e.tick, 5u);
    eng.drainAll();
    EXPECT_EQ(eng.pending(), 0u);
    EXPECT_EQ(eng.minNextTick(), maxTick);
}

/**
 * N-tile ring: lane 0 = global, lane 1 + t = tile t. Each tile event
 * logs, schedules a local follow-up and a cross send to the next
 * tile (1-3 ticks of latency), and now and then mails the global
 * lane, whose handler pokes the last tile at the same tick. Driven
 * either through one serial queue or through a global queue plus P
 * partition queues (q[lane] is the queue owning that lane).
 */
struct Ring
{
    unsigned tiles;
    std::vector<EventQueue *> q;
    std::vector<std::vector<Mesh::Entry>> log;
    int maxDepth = 10;
    /** Host busy-work per event on this lane (0 = none). */
    unsigned slowLane = 0;
    unsigned spin = 0;

    explicit Ring(unsigned n) : tiles(n), q(n + 1), log(n + 1) {}

    void
    seed()
    {
        for (unsigned lane = 1; lane <= tiles; ++lane)
            q[lane]->scheduleAtL(lane, q[lane]->now() + 1 + lane % 3,
                                 [this, lane] { tile(lane, 0); });
    }

    void
    tile(unsigned lane, int depth)
    {
        log[lane].push_back({q[lane]->now(), depth});
        if (lane == slowLane) {
            volatile unsigned sink = 0;
            for (unsigned i = 0; i < spin; ++i)
                sink = sink + i;
        }
        if (depth >= maxDepth)
            return;
        q[lane]->scheduleL(lane, 1 + depth % 2,
                           [this, lane, depth] { tile(lane, depth + 1); });
        const unsigned peer = lane % tiles + 1;
        q[lane]->scheduleCross(peer, 1 + (depth + lane) % 3,
                               [this, peer, depth] {
            tile(peer, depth + 1);
        });
        if (depth % 4 == 1)
            q[lane]->scheduleCross(0, 1 + lane % 2, [this, lane, depth] {
                master(lane, depth);
            });
    }

    void
    master(unsigned from, int depth)
    {
        log[0].push_back({q[0]->now(), depth * 100 + static_cast<int>(from)});
        // Same-tick poke into the last tile (another partition's
        // lane): it must run at this tick, after lane 0.
        q[tiles]->scheduleL(tiles, 0, [this] {
            log[tiles].push_back({q[tiles]->now(), -1});
        });
    }
};

/** A global queue plus @p parts partition queues over @p tiles tile
 *  lanes, split into contiguous even ranges. */
struct Partitioned
{
    EventQueue global;
    std::vector<std::unique_ptr<EventQueue>> parts;
    std::vector<unsigned> laneToPart;

    Partitioned(unsigned tiles, unsigned nparts)
        : laneToPart(tiles + 1, nparts)
    {
        global.setNumLanes(tiles + 1);
        for (unsigned p = 0; p < nparts; ++p) {
            parts.push_back(std::make_unique<EventQueue>());
            parts.back()->setNumLanes(tiles + 1);
        }
        for (unsigned t = 0; t < tiles; ++t)
            laneToPart[1 + t] = t * nparts / tiles;
    }

    void
    bind(Ring &r)
    {
        r.q[0] = &global;
        for (unsigned lane = 1; lane <= r.tiles; ++lane)
            r.q[lane] = parts[laneToPart[lane]].get();
    }

    std::vector<EventQueue *>
    queues()
    {
        std::vector<EventQueue *> v;
        for (auto &p : parts)
            v.push_back(p.get());
        return v;
    }
};

/** Serial reference of @p r driven to quiescence. */
std::vector<std::vector<Mesh::Entry>>
serialLog(Ring r, Tick *endTick = nullptr)
{
    EventQueue seq;
    seq.setNumLanes(r.tiles + 1);
    for (auto &qp : r.q)
        qp = &seq;
    r.seed();
    seq.run();
    if (endTick)
        *endTick = seq.now();
    return r.log;
}

TEST(Parallel, UnevenPartitionsAgreeOnEveryRound)
{
    // One partition does far more host work per round than the
    // others, so the fast ones reach the next round's publish while
    // the slow one is still taking the minimum of this round's
    // published ticks. Only the parity double-buffer keeps them from
    // overwriting the slot it reads (TSan flags the race; without
    // TSan the threads can disagree on T).
    Ring proto(8);
    proto.maxDepth = 9;
    proto.slowLane = 8;
    proto.spin = 20000;
    Tick serialEnd = 0;
    const auto want = serialLog(proto, &serialEnd);

    Ring r = proto;
    Partitioned pq(8, 4);
    pq.bind(r);
    r.seed();
    {
        ParallelEngine eng(pq.global, pq.queues(), pq.laneToPart);
        eng.drainAll();
        EXPECT_EQ(eng.pending(), 0u);
        EXPECT_GT(eng.laneZeroRounds(), 0u);
        // One barrier per round, a second one per lane-0 round, and
        // the entry and exit barriers of the one drainAll() call.
        EXPECT_EQ(eng.barriers(),
                  eng.rounds() + eng.laneZeroRounds() + 2);
    }
    EXPECT_EQ(pq.global.now(), serialEnd);
    for (unsigned lane = 0; lane <= 8; ++lane)
        EXPECT_EQ(r.log[lane], want[lane]) << "lane " << lane;
}

TEST(Parallel, ShortRunUntilWindowsMatchSerial)
{
    // Many short windows, with a global event scheduled from outside
    // the engine between each pair. Each call must leave mail in
    // flight in a consistent state: its exit barrier comes before the
    // master delivers leftover mail and republishes, and the next
    // call republishes every partition from scratch (missing either
    // panics with "foreign event at tick X but now is Y").
    auto drive = [](Ring &r, auto runUntil, EventQueue &global,
                    auto clocks) {
        int pokes = 0;
        for (Tick until = 2; until < 120; until += 3) {
            runUntil(until);
            for (Tick c : clocks())
                EXPECT_EQ(c, until);
            global.scheduleAtL(0, until + 1, [&r, until, &pokes] {
                r.log[0].push_back({until + 1, -7});
                ++pokes;
            });
        }
        return pokes;
    };

    Ring serial(6);
    EventQueue seq;
    seq.setNumLanes(7);
    for (auto &qp : serial.q)
        qp = &seq;
    serial.seed();
    const int serialPokes = drive(
        serial, [&](Tick u) { seq.runUntil(u); }, seq,
        [&] { return std::vector<Tick>{seq.now()}; });
    seq.run();

    Ring r(6);
    Partitioned pq(6, 3);
    pq.bind(r);
    r.seed();
    ParallelEngine eng(pq.global, pq.queues(), pq.laneToPart);
    const int pokes = drive(
        r, [&](Tick u) { eng.runUntil(u); }, pq.global, [&] {
            std::vector<Tick> v{pq.global.now()};
            for (auto &p : pq.parts)
                v.push_back(p->now());
            return v;
        });
    eng.drainAll();
    EXPECT_EQ(pokes, serialPokes);
    EXPECT_EQ(eng.pending(), 0u);
    for (unsigned lane = 0; lane <= 6; ++lane)
        EXPECT_EQ(r.log[lane], serial.log[lane]) << "lane " << lane;
}

TEST(Parallel, DrainAllLeavesClocksAtLastEvent)
{
    // drainAll() quiesces without a tick bound; the clocks must end
    // at the last executed tick, as the serial kernel's do — not at
    // maxTick — so the run's final time matches and the queues stay
    // usable afterwards.
    Ring proto(4);
    Tick serialEnd = 0;
    serialLog(proto, &serialEnd);

    Ring r = proto;
    Partitioned pq(4, 2);
    pq.bind(r);
    r.seed();
    ParallelEngine eng(pq.global, pq.queues(), pq.laneToPart);
    eng.drainAll();
    EXPECT_EQ(pq.global.now(), serialEnd);
    for (auto &p : pq.parts)
        EXPECT_EQ(p->now(), serialEnd);

    bool ran = false;
    pq.parts[1]->scheduleAtL(4, serialEnd + 5, [&] { ran = true; });
    eng.runUntil(serialEnd + 5);
    EXPECT_TRUE(ran);
    EXPECT_EQ(pq.global.now(), serialEnd + 5);
}

TEST(Parallel, LaneZeroTickWithIdlePartitions)
{
    // A global event at a tick where no partition has work: the
    // master runs it alone, and the same-tick event it schedules on a
    // tile lane still runs at that tick, after lane 0. That tile
    // event's cross send then runs two ticks later.
    Partitioned pq(4, 2);
    std::vector<std::pair<Tick, int>> log0, log3, log1;
    EventQueue &tileQ = *pq.parts[1];   // owns lanes 3..4
    EventQueue &otherQ = *pq.parts[0];  // owns lanes 1..2
    pq.global.scheduleAtL(0, 50, [&] {
        log0.push_back({pq.global.now(), 0});
        tileQ.scheduleL(3, 0, [&] {
            log3.push_back({tileQ.now(), 3});
            tileQ.scheduleCross(1, 2, [&] {
                log1.push_back({otherQ.now(), 1});
            });
        });
    });
    ParallelEngine eng(pq.global, pq.queues(), pq.laneToPart);
    eng.drainAll();
    EXPECT_EQ(log0, (std::vector<std::pair<Tick, int>>{{50, 0}}));
    EXPECT_EQ(log3, (std::vector<std::pair<Tick, int>>{{50, 3}}));
    EXPECT_EQ(log1, (std::vector<std::pair<Tick, int>>{{52, 1}}));
    EXPECT_EQ(eng.rounds(), 2u);
    EXPECT_EQ(eng.laneZeroRounds(), 1u);
    EXPECT_EQ(eng.barriers(), 2u + 1u + 2u);
    EXPECT_EQ(eng.crossEvents(), 1u);
}

TEST(ParallelCut, PartsAreContiguousAndNonEmpty)
{
    for (unsigned dim : {4u, 8u, 16u}) {
        const unsigned tiles = dim * dim;
        for (unsigned parts = 1; parts <= tiles; ++parts) {
            const std::vector<unsigned> cut =
                sys::partitionTiles(dim, parts);
            ASSERT_EQ(cut.size(), tiles);
            EXPECT_EQ(cut.front(), 0u);
            EXPECT_EQ(cut.back(), parts - 1) << dim << "/" << parts;
            for (unsigned t = 1; t < tiles; ++t) {
                // Contiguous and non-empty: the part index never
                // decreases and never skips one.
                const unsigned step = cut[t] - cut[t - 1];
                ASSERT_TRUE(step == 0 || step == 1)
                    << dim << "x" << dim << " parts " << parts
                    << " tile " << t;
            }
        }
    }
}

TEST(ParallelCut, WeightedRowsOn16x16)
{
    // Rows 5/8/11 (partition sizes 80/48/48/80 tiles): the middle rows
    // carry most of the XY through-traffic, so they get fewer rows.
    const std::vector<unsigned> cut = sys::partitionTiles(16, 4);
    for (unsigned t = 0; t < 256; ++t) {
        const unsigned y = t / 16;
        const unsigned want = y < 5 ? 0 : y < 8 ? 1 : y < 11 ? 2 : 3;
        ASSERT_EQ(cut[t], want) << "tile " << t;
    }
    // 8x8 keeps the even row cut; 4x4 at three parts is uneven.
    const std::vector<unsigned> c8 = sys::partitionTiles(8, 4);
    for (unsigned t = 0; t < 64; ++t)
        EXPECT_EQ(c8[t], t / 16) << "tile " << t;
    const std::vector<unsigned> c4 = sys::partitionTiles(4, 3);
    EXPECT_EQ(c4, (std::vector<unsigned>{0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1,
                                         1, 2, 2, 2, 2}));
}

} // namespace
} // namespace misar
