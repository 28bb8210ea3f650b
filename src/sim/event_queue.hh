/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A calendar queue of lane-ordered callbacks. Every event belongs to
 * a *lane*: lane 0 is the global lane (watchdog, samplers, fault
 * injectors, run-control lambdas) and lane 1+t is tile t (its core,
 * L1, router, NI, and MSA slice). Within one tick, lanes execute in
 * ascending order; within one (tick, lane) cell, events execute in
 * ascending (sendTick, senderLane) order, FIFO per sender. This
 * contract is what makes parallel tile-partitioned execution
 * (sim/parallel.hh) produce the same trajectory as serial execution:
 * the key is a property of the *sender*, not of host-side insertion
 * order, so it is invariant under any partitioning of lanes onto
 * threads.
 *
 * Implementation: a two-level calendar queue tuned for the host-side
 * hot path. Near-future events (within `window` ticks of now) live in
 * a ring of per-tick FIFO buckets indexed by tick modulo the window;
 * an occupancy bitmap makes "next non-empty bucket" a few word scans.
 * Far-future events (watchdog sweeps, invariant checks, samplers)
 * wait in a min-heap and are promoted into the ring as the clock
 * advances. At each occupied tick the bucket is scattered into
 * per-lane chains (lane occupancy is itself a bitmap); a chain is
 * stable-sorted by (sendTick, senderLane) only when the scatter finds
 * it out of order, which never happens in serial runs — serial
 * execution appends in exactly that order — and only happens in
 * threaded runs for cells that received cross-partition mailbox
 * deliveries. Event records come from a free-list pool and store
 * their callback inline in a small buffer, so the steady-state event
 * loop performs no heap allocation at all (see poolStats()).
 *
 * Determinism contract: execution order is exactly ascending
 * (tick, lane, sendTick, senderLane, per-sender FIFO). A single-lane
 * queue (the default: numLanes == 1) degenerates to plain
 * (tick, insertion sequence) order, bit-identical to the pre-lane
 * kernel.
 */

#ifndef MISAR_SIM_EVENT_QUEUE_HH
#define MISAR_SIM_EVENT_QUEUE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace misar {

/**
 * The simulation event queue and clock.
 *
 * All simulated components of one partition share one EventQueue
 * (serial runs have a single partition spanning every lane).
 * Components schedule callbacks at absolute or relative ticks;
 * run() drains the queue in (tick, lane, sender-order) order.
 */
class EventQueue
{
  public:
    /** Why drain() returned. */
    enum class DrainResult
    {
        Drained,  ///< queue empty: the simulation quiesced cleanly
        LimitHit, ///< tick limit reached with events still pending
    };

    /** Allocation counters of the event machinery (run reports). */
    struct PoolStats
    {
        /** Event records carved out of pool chunks so far. */
        std::uint64_t recordCapacity = 0;
        /** Pool chunk heap allocations (stable once warmed up). */
        std::uint64_t chunkAllocs = 0;
        /** Callbacks too large for the inline buffer (heap boxed). */
        std::uint64_t heapCallbacks = 0;
        /** Total events ever scheduled. */
        std::uint64_t scheduled = 0;
        /** High-water mark of simultaneously pending events. */
        std::uint64_t maxPending = 0;
        /** Lane chains re-sorted at drain (cross-partition merges). */
        std::uint64_t laneSorts = 0;
    };

    /** What a record's op does with its stored callable. */
    enum class Act : std::uint8_t
    {
        Run,  ///< invoke, then destroy
        Drop, ///< destroy without invoking
        Move, ///< relocate into another record's storage
    };

    /** Inline callback buffer: sized for the fattest hot-path lambda
     *  (L1 atomic: this + addr + op + 2 operands + block + bound
     *  std::function callback) with headroom. */
    static constexpr std::size_t inlineBytes = 96;

    /**
     * One pending event: its deterministic key plus the callable,
     * stored inline. Public because cross-partition mail uses the
     * same format (sim/parallel.cc): a mailbox slot is an
     * EventRecord that the receiving queue relocates into its own
     * pool with insertForeign().
     */
    struct EventRecord
    {
        Tick when;
        Tick sendTick;
        std::uint64_t seq;
        LaneId lane;
        LaneId senderLane;
        EventRecord *next;
        /** Run, drop, or relocate (into @p dst) the stored callable. */
        void (*op)(EventRecord *self, Act act, EventRecord *dst);
        alignas(std::max_align_t) unsigned char storage[inlineBytes];
    };

    /** Destroy a record's callable without running it. */
    static void
    dropRecord(EventRecord &r)
    {
        r.op(&r, Act::Drop, nullptr);
    }

    /**
     * Hook routing cross-partition events to their owning queue
     * (sim/parallel.cc installs one per worker). Receives the
     * destination lane and absolute tick, and returns a mail slot;
     * scheduleCross() fills in the sender's key and constructs the
     * callable in place, so the receiving queue files the event under
     * the same deterministic key it would have had if inserted
     * inline.
     */
    using CrossHook = EventRecord *(*)(void *ctx, LaneId dstLane,
                                       Tick when);

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Declare the lane id space [0, n). Grows only; lane arrays are
     * reused across ticks. Single-lane queues (never calling this)
     * behave exactly like the pre-lane kernel.
     */
    void setNumLanes(LaneId n);

    /** Number of configured lanes. */
    LaneId laneCount() const { return numLanes; }

    /** Lane of the event currently executing (0 outside a drain). */
    LaneId currentLane() const { return curLane; }

    /** Schedule @p f on the *current* lane @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&f)
    {
        scheduleAtL(curLane, _now + delay, std::forward<F>(f));
    }

    /** Schedule @p f on the current lane at absolute tick @p when. */
    template <typename F>
    void
    scheduleAt(Tick when, F &&f)
    {
        scheduleAtL(curLane, when, std::forward<F>(f));
    }

    /** Schedule @p f on lane @p lane, @p delay ticks from now. */
    template <typename F>
    void
    scheduleL(LaneId lane, Tick delay, F &&f)
    {
        scheduleAtL(lane, _now + delay, std::forward<F>(f));
    }

    /**
     * Schedule @p f on lane @p lane at absolute tick @p when.
     * @pre when >= now() — enforced with a panic.
     * @pre when > now() or lane >= currentLane() — an event cannot be
     *      scheduled into a same-tick lane that already ran.
     */
    template <typename F>
    void
    scheduleAtL(LaneId lane, Tick when, F &&f)
    {
        EventRecord *r = prepareRecord(lane, when);
        storeCallable(r, std::forward<F>(f));
        insert(r);
    }

    /**
     * Schedule onto a lane that may be owned by another partition's
     * queue. Serial runs (no hook installed) and in-partition lanes
     * insert inline; foreign lanes are handed to the cross hook,
     * which mails them to the owning queue. Cross-partition events
     * must carry at least one tick of latency (the PDES lookahead
     * window) — a zero-delay foreign send panics.
     */
    template <typename F>
    void
    scheduleCross(LaneId dstLane, Tick delay, F &&f)
    {
        if (!crossHook || (dstLane >= ownLaneBegin && dstLane < ownLaneEnd)) {
            scheduleAtL(dstLane, _now + delay, std::forward<F>(f));
            return;
        }
        if (delay == 0)
            panic("zero-delay cross-partition event to lane %u", dstLane);
        EventRecord *m = crossHook(crossCtx, dstLane, _now + delay);
        m->when = _now + delay;
        m->sendTick = _now;
        m->lane = dstLane;
        m->senderLane = curLane;
        storeCallable(m, std::forward<F>(f));
    }

    /**
     * Install the cross-partition routing hook. Lanes in
     * [ownBegin, ownEnd) are owned by this queue and keep inserting
     * inline; everything else is routed through @p hook.
     */
    void
    setCrossHook(void *ctx, CrossHook hook, LaneId ownBegin, LaneId ownEnd)
    {
        crossCtx = ctx;
        crossHook = hook;
        ownLaneBegin = ownBegin;
        ownLaneEnd = ownEnd;
    }

    /**
     * Insert an event delivered from another partition's mailbox,
     * preserving the sender's deterministic ordering key. The
     * callable is relocated out of @p mail, which is left empty.
     * Only the parallel kernel calls this, between tick barriers.
     */
    void insertForeign(EventRecord &mail);

    /** As above, for a callable built by the caller under the given
     *  sender key (merge-order tests). */
    template <typename F>
    void
    insertForeign(LaneId lane, Tick when, Tick sendTick, LaneId senderLane,
                  F &&f)
    {
        EventRecord *r = foreignRecord(lane, when, sendTick, senderLane);
        storeCallable(r, std::forward<F>(f));
        insert(r);
    }

    /** True when no events remain. */
    bool empty() const { return numPending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return numPending; }

    /**
     * Run until the queue drains or @p limit ticks elapse. Returns
     * why it stopped, so callers can tell clean termination from a
     * livelock/deadlock (events still pending at the limit).
     */
    DrainResult drain(Tick limit = maxTick);

    /** Compatibility wrapper: true iff the queue drained. */
    bool
    run(Tick limit = maxTick)
    {
        return drain(limit) == DrainResult::Drained;
    }

    /** Run until now() would exceed @p until (events at @p until run). */
    void runUntil(Tick until);

    /** Earliest pending tick, or maxTick when empty. */
    Tick
    nextEventTick() const
    {
        if (!numPending)
            return maxTick;
        return ringCount ? nextRingTick() : overflow.front()->when;
    }

    /**
     * Advance the clock to @p t without executing anything (the
     * parallel kernel aligns partition clocks at each barrier).
     * @pre no pending event earlier than @p t.
     */
    void
    advanceTo(Tick t)
    {
        if (t <= _now)
            return;
        if (numPending && nextEventTick() < t)
            panic("advanceTo(%llu) would skip a pending event at %llu",
                  static_cast<unsigned long long>(t),
                  static_cast<unsigned long long>(nextEventTick()));
        _now = t;
        promote();
    }

    /** Execute every event at tick @p t. @pre t == now(). */
    void runTick(Tick t);

    /** Total number of events executed so far. */
    std::uint64_t executedEvents() const { return executed; }

    /** Allocation counters (zero steady-state allocation evidence). */
    const PoolStats &poolStats() const { return pstats; }

  private:
    /** log2 of the near-future window (ring size in ticks). */
    static constexpr unsigned bucketBits = 12;
    /** Near-future window: one bucket per tick in [now, now+window). */
    static constexpr Tick window = Tick{1} << bucketBits;
    static constexpr std::size_t numBuckets = std::size_t{1} << bucketBits;
    static constexpr std::size_t bucketMask = numBuckets - 1;
    static constexpr std::size_t numWords = numBuckets / 64;
    /** Event records per pool chunk. */
    static constexpr std::size_t chunkSize = 512;

    struct Bucket
    {
        EventRecord *head = nullptr;
        EventRecord *tail = nullptr;
    };

    /** Per-lane FIFO chain, rebuilt from the tick bucket each drain. */
    struct Lane
    {
        EventRecord *head = nullptr;
        EventRecord *tail = nullptr;
        /** Scatter saw an out-of-key-order append (needs a sort). */
        bool dirty = false;
    };

    template <typename Fn>
    static void
    opInline(EventRecord *r, Act act, EventRecord *dst)
    {
        Fn *f = std::launder(reinterpret_cast<Fn *>(r->storage));
        if (act == Act::Run) {
            (*f)();
        } else if (act == Act::Move) {
            ::new (static_cast<void *>(dst->storage)) Fn(std::move(*f));
            dst->op = &opInline<Fn>;
        }
        f->~Fn();
    }

    template <typename Fn>
    static void
    opBoxed(EventRecord *r, Act act, EventRecord *dst)
    {
        Fn **p = std::launder(reinterpret_cast<Fn **>(r->storage));
        if (act == Act::Move) {
            ::new (static_cast<void *>(dst->storage)) (Fn *)(*p);
            dst->op = &opBoxed<Fn>;
            return;
        }
        if (act == Act::Run)
            (**p)();
        delete *p;
    }

    /** Min-heap order for the far-future overflow heap. */
    static bool
    later(const EventRecord *a, const EventRecord *b)
    {
        if (a->when != b->when)
            return a->when > b->when;
        return a->seq > b->seq;
    }

    /** Sender key: drains execute each (tick, lane) cell in this
     *  order, FIFO per equal key (stable sort). */
    static bool
    senderBefore(const EventRecord *a, const EventRecord *b)
    {
        if (a->sendTick != b->sendTick)
            return a->sendTick < b->sendTick;
        return a->senderLane < b->senderLane;
    }

    /** Allocate and key a record (shared by every schedule path). */
    EventRecord *
    prepareRecord(LaneId lane, Tick when)
    {
        if (when < _now)
            panic("event scheduled in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(_now));
        if (lane >= numLanes)
            panic("event on lane %u but only %u lanes configured",
                  lane, numLanes);
        EventRecord *r = allocRecord();
        r->when = when;
        r->sendTick = _now;
        r->seq = nextSeq++;
        r->lane = lane;
        r->senderLane = curLane;
        return r;
    }

    template <typename F>
    void
    storeCallable(EventRecord *r, F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(r->storage))
                Fn(std::forward<F>(f));
            r->op = &opInline<Fn>;
        } else {
            ::new (static_cast<void *>(r->storage))
                (Fn *)(new Fn(std::forward<F>(f)));
            r->op = &opBoxed<Fn>;
            ++pstats.heapCallbacks;
        }
    }

    /** Allocate and key a record for a foreign (mailed) event. */
    EventRecord *foreignRecord(LaneId lane, Tick when, Tick sendTick,
                               LaneId senderLane);

    EventRecord *allocRecord();
    void growPool();

    void
    freeRecord(EventRecord *r)
    {
        r->next = freeHead;
        freeHead = r;
    }

    /** File @p r into its ring bucket, lane chain, or overflow heap. */
    void insert(EventRecord *r);

    /** Append to the FIFO bucket for r->when (must be in-window). */
    void appendBucket(EventRecord *r);

    /** Append @p r to its lane chain (same-tick insert mid-drain). */
    void appendLane(EventRecord *r);

    /** Stable-sort lane @p l by sender key (cross-partition merge). */
    void sortLane(LaneId l);

    /** Promote far-future events now inside [now, now+window). */
    void promote();

    /** Earliest ring tick; ring must be non-empty. */
    Tick nextRingTick() const;

    /** Lowest occupied lane >= @p from, or numLanes when none. */
    LaneId
    nextOccupiedLane(LaneId from) const
    {
        std::size_t w = from >> 6;
        const std::size_t words = laneOcc.size();
        if (w >= words)
            return numLanes;
        std::uint64_t word = laneOcc[w] & (~std::uint64_t{0} << (from & 63));
        while (true) {
            if (word)
                return static_cast<LaneId>(
                    (w << 6) | static_cast<std::size_t>(
                                   std::countr_zero(word)));
            if (++w >= words)
                return numLanes;
            word = laneOcc[w];
        }
    }

    std::vector<Bucket> buckets{numBuckets};
    /** One occupancy bit per bucket. */
    std::vector<std::uint64_t> occ = std::vector<std::uint64_t>(numWords, 0);
    /** Far-future events as a (when, seq) min-heap. */
    std::vector<EventRecord *> overflow;
    std::size_t ringCount = 0;
    std::size_t numPending = 0;

    /** Per-lane drain chains + occupancy bitmap (reused each tick). */
    LaneId numLanes = 1;
    std::vector<Lane> lanes = std::vector<Lane>(1);
    std::vector<std::uint64_t> laneOcc = std::vector<std::uint64_t>(1, 0);
    /** Scratch buffer for sortLane. */
    std::vector<EventRecord *> sortScratch;

    /** True while runTick executes (same-tick inserts go to chains). */
    bool draining = false;

    /** Cross-partition routing (null in serial runs). */
    void *crossCtx = nullptr;
    CrossHook crossHook = nullptr;
    LaneId ownLaneBegin = 0;
    LaneId ownLaneEnd = 0;

    /** Free-list over pool chunk records. */
    EventRecord *freeHead = nullptr;
    std::vector<std::unique_ptr<EventRecord[]>> chunks;
    PoolStats pstats;

    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    LaneId curLane = 0;
};

} // namespace misar

#endif // MISAR_SIM_EVENT_QUEUE_HH
