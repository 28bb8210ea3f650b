/**
 * @file
 * Conservative parallel discrete-event engine (PDES) for the tile
 * mesh.
 *
 * The mesh is split into `--threads N` contiguous tile groups; each
 * group owns a private EventQueue holding the lanes of its tiles.
 * Lane 0 (the global lane: watchdog, samplers, fault injectors,
 * run-control lambdas) stays on the System's shared queue and is
 * executed only by the master thread, with every worker parked — so
 * master-lane code may freely touch any tile's state, exactly like
 * the serial kernel.
 *
 * Synchronization is bucket-synchronous with a lookahead of one tick,
 * the minimum cross-partition NoC latency (a credit return crosses a
 * partition boundary in one tick; flit hops take routerLatency +
 * linkLatency >= 2). Each round executes exactly one simulated tick
 * T and costs one barrier. Every thread (the master doubles as
 * partition 0's worker) runs the same loop:
 *
 *   1. take T = the minimum of every partition's published earliest
 *      tick — each thread computes the same value from the same
 *      slots, so no thread has to broadcast it;
 *   2. if lane 0 has an event at T: the master delivers the lane-0
 *      mail, aligns every clock to T and runs the global lane while
 *      the workers wait at a second barrier (the only round that
 *      pays one);
 *   3. deliver the mail other partitions sent last round, run the
 *      partition's events at T, appending cross-partition sends to
 *      outbound mailboxes;
 *   4. publish two earliest ticks: the partition's own queue or the
 *      mail it sent to other partitions, and the mail it sent to
 *      lane 0 (the master folds in the global queue); barrier.
 *
 * Published ticks and mailboxes are double-buffered by round parity:
 * round k reads slot k&1 and writes slot (k+1)&1, and appends mail to
 * generation k&1 while draining generation (k+1)&1, so no buffer is
 * ever written and read concurrently — a fast partition republishes
 * into the slot the slow ones are not reading. Lane-0 mail is read
 * only while every worker is parked. Leaving runUntil() costs one
 * more barrier, after which the master owns every queue and mailbox
 * again: it delivers the leftover mail and aligns the clocks, then
 * republishes from scratch on the next call. All cross-thread
 * visibility is by the barriers — no locks, no atomics on the data
 * path — which also makes the engine clean under ThreadSanitizer.
 *
 * Mail carries its callable inline in the event-record format
 * (EventQueue::EventRecord), so a cross-partition event costs no
 * heap allocation; the receiving queue relocates it into its own
 * record pool.
 *
 * Determinism: every event executes at the same (tick, lane,
 * sendTick, senderLane, per-sender FIFO) position regardless of N,
 * because the receiving queue files mailbox deliveries under the
 * sender's key (EventQueue::insertForeign) and the per-tick scatter
 * re-sorts any cell that received one. `--threads 1` does not
 * instantiate this engine at all.
 */

#ifndef MISAR_SIM_PARALLEL_HH
#define MISAR_SIM_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace misar {

/** Sense-reversing spin barrier (TSan-clean, no syscalls when hot). */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned parties) : parties(parties) {}

    void
    arriveAndWait()
    {
        const unsigned s = sense.load(std::memory_order_relaxed);
        if (count.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
            count.store(0, std::memory_order_relaxed);
            sense.store(s ^ 1, std::memory_order_release);
        } else {
            unsigned spins = 0;
            while (sense.load(std::memory_order_acquire) == s)
                if (++spins > 4096) {
                    std::this_thread::yield();
                    spins = 0;
                }
        }
    }

  private:
    const unsigned parties;
    std::atomic<unsigned> count{0};
    std::atomic<unsigned> sense{0};
};

/**
 * The parallel tick engine. Constructed by System::runDetailed for
 * `--threads N >= 2` runs; the constructing thread is the master and
 * doubles as partition 0's worker. Destroying the engine parks and
 * joins the worker threads.
 */
class ParallelEngine
{
  public:
    /**
     * @p global   lane-0 queue (master-only).
     * @p parts    one queue per partition, each owning the lanes
     *             [1 + tileBase, 1 + tileEnd) of its tile group.
     * @p laneToPart partition index per lane; lane 0 maps to
     *             parts.size() (the global inbox).
     *
     * Installs the cross-partition hook on every partition queue.
     */
    ParallelEngine(EventQueue &global, std::vector<EventQueue *> parts,
                   std::vector<unsigned> laneToPart);
    ~ParallelEngine();
    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Execute every event with tick <= @p until; clocks end at
     *  max(now, until). Master thread only. */
    void runUntil(Tick until);

    /** Execute until every queue and mailbox is empty (quiesce);
     *  clocks end at the last executed tick. */
    void drainAll();

    /** Pending events over all queues plus undelivered mail. */
    std::size_t pending() const;

    /** Earliest pending tick anywhere, or maxTick. */
    Tick minNextTick() const;

    /** Park and join the workers (idempotent; dtor calls it). */
    void shutdown();

    /** Rounds executed (one simulated tick each). */
    std::uint64_t rounds() const { return roundCount; }

    /** Rounds that ran lane-0 events (and paid a second barrier). */
    std::uint64_t laneZeroRounds() const { return laneZeroCount; }

    /** Barriers every thread passed, including runUntil entry/exit. */
    std::uint64_t barriers() const { return barrierCount; }

    /** Cross-partition deliveries routed. */
    std::uint64_t crossEvents() const;

  private:
    using Record = EventQueue::EventRecord;

    /** Grow-only arena of mail records. Chunks never move, so a slot
     *  handed to scheduleCross() stays put while the callable is
     *  constructed in it; the arena is reused round after round. */
    class alignas(64) MailBuf
    {
      public:
        MailBuf() = default;
        MailBuf(const MailBuf &) = delete;
        MailBuf &operator=(const MailBuf &) = delete;
        ~MailBuf() { clear(); }

        Record *push();
        std::size_t size() const { return count; }
        /** Earliest mailed tick, or maxTick when empty. */
        Tick minWhen() const;
        /** Relocate every record into @p q, in send order. */
        void deliverTo(EventQueue &q);
        /** Drop every record without running it. */
        void clear();

      private:
        static constexpr std::size_t chunkLen = 64;
        Record &
        at(std::size_t i)
        {
            return chunks[i / chunkLen][i % chunkLen];
        }
        const Record &
        at(std::size_t i) const
        {
            return chunks[i / chunkLen][i % chunkLen];
        }
        std::vector<std::unique_ptr<Record[]>> chunks;
        std::size_t count = 0;
    };

    /** One direction of one src->dst pair, double-buffered. Each
     *  MailBuf has its own cache line: the sender appends to one
     *  generation while the receiver drains the other. */
    struct Mailbox
    {
        MailBuf gen[2];
    };

    /** Per-partition state written only by its own thread during
     *  rounds: the crossHook context plus the mail bookkeeping that
     *  feeds the published ticks. */
    struct alignas(64) Handle
    {
        ParallelEngine *engine;
        unsigned src;
        /** Mail generation of the current round. */
        unsigned gen = 0;
        /** Earliest mail sent to other partitions this round. */
        Tick outMin = maxTick;
        /** Earliest lane-0 mail not yet delivered. */
        Tick laneZeroMin = maxTick;
        std::uint64_t sent = 0;
    };

    /** Earliest ticks a partition published, by round parity. */
    struct alignas(64) Published
    {
        Tick next[2] = {maxTick, maxTick};
        Tick laneZero[2] = {maxTick, maxTick};
    };

    static Record *hook(void *ctx, LaneId dstLane, Tick when);

    Mailbox &
    box(unsigned src, unsigned dst)
    {
        return mailboxes[src * numParts + dst];
    }

    /** Master, workers parked: publish every partition from scratch
     *  into slot ctlPar and run rounds until past @p until. Returns
     *  the last executed tick, or maxTick if none ran. */
    Tick run(Tick until);

    /** The round loop every thread runs (see file comment). Ends
     *  with the exit barrier; returns the last executed tick. */
    Tick roundLoop(unsigned p);

    /** Master, workers parked: deliver lane-0 mail, align every
     *  clock to @p t and run the global lane's events at @p t.
     *  Lane-0 code may touch any partition's queue directly. */
    void runLaneZero(Tick t);

    /** Master, workers parked: advance every clock to @p t. */
    void alignClocks(Tick t);

    /** Master, workers parked: deliver all undelivered mail. */
    void flushMail();

    /** Spawned-thread loop for partitions 1..P-1. */
    void workerLoop(unsigned p);

    /** Arrive at the shared barrier as partition @p p's thread. */
    void
    barrier(unsigned p)
    {
        if (p == 0)
            ++barrierCount;
        bar.arriveAndWait();
    }

    EventQueue &global;
    std::vector<EventQueue *> parts;
    std::vector<unsigned> laneToPart;
    const unsigned numParts;

    std::vector<Handle> handles;
    std::vector<Published> published;
    std::vector<Mailbox> mailboxes;
    /** Lane-0 mail per source partition. Single-buffered: the master
     *  reads it only while every worker is parked. */
    std::vector<MailBuf> laneZeroMail;

    SpinBarrier bar;

    /** Run control, written by the master while the workers are
     *  parked (before the barrier that releases them). */
    Tick ctlUntil = 0;
    unsigned ctlPar = 0;
    bool ctlStop = false;

    /** Earliest global-queue tick (master-owned). */
    Tick globalNext = maxTick;

    std::vector<std::thread> threads;
    bool joined = false;

    /** Master-owned counters. */
    std::uint64_t roundCount = 0;
    std::uint64_t laneZeroCount = 0;
    std::uint64_t barrierCount = 0;
};

} // namespace misar

#endif // MISAR_SIM_PARALLEL_HH
