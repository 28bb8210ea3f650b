#include "sim/event_queue.hh"

#include <algorithm>

namespace misar {

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Destroy (without running) every callable still pending — ring,
    // lane chains, and overflow alike; the chunks vector frees the
    // records.
    for (Bucket &b : buckets) {
        for (EventRecord *r = b.head; r;) {
            EventRecord *next = r->next;
            dropRecord(*r);
            r = next;
        }
    }
    for (Lane &l : lanes) {
        for (EventRecord *r = l.head; r;) {
            EventRecord *next = r->next;
            dropRecord(*r);
            r = next;
        }
    }
    for (EventRecord *r : overflow)
        dropRecord(*r);
}

void
EventQueue::setNumLanes(LaneId n)
{
    if (n <= numLanes)
        return;
    numLanes = n;
    lanes.resize(n);
    laneOcc.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
}

EventQueue::EventRecord *
EventQueue::allocRecord()
{
    if (!freeHead)
        growPool();
    EventRecord *r = freeHead;
    freeHead = r->next;
    return r;
}

void
EventQueue::growPool()
{
    auto chunk = std::make_unique<EventRecord[]>(chunkSize);
    for (std::size_t i = chunkSize; i-- > 0;) {
        chunk[i].next = freeHead;
        freeHead = &chunk[i];
    }
    chunks.push_back(std::move(chunk));
    ++pstats.chunkAllocs;
    pstats.recordCapacity += chunkSize;
}

void
EventQueue::appendBucket(EventRecord *r)
{
    Bucket &b = buckets[static_cast<std::size_t>(r->when) & bucketMask];
    r->next = nullptr;
    if (b.tail) {
        b.tail->next = r;
    } else {
        b.head = r;
        const std::size_t idx =
            static_cast<std::size_t>(r->when) & bucketMask;
        occ[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }
    b.tail = r;
    ++ringCount;
}

void
EventQueue::appendLane(EventRecord *r)
{
    // Same-tick insert while this tick drains. The executing lane can
    // feed itself (FIFO append, picked up by the drain loop) or any
    // later lane; a lane that already ran is gone for this tick.
    if (r->lane < curLane)
        panic("same-tick event into lane %u from lane %u (already ran)",
              r->lane, curLane);
    Lane &l = lanes[r->lane];
    r->next = nullptr;
    if (l.tail) {
        // Appends mid-drain carry key (now, curLane), which is >= the
        // chain tail's key by construction; keep the check anyway so
        // a contract violation surfaces as a sort, not misordering.
        if (senderBefore(r, l.tail))
            l.dirty = true;
        l.tail->next = r;
    } else {
        l.head = r;
        laneOcc[r->lane >> 6] |= std::uint64_t{1} << (r->lane & 63);
    }
    l.tail = r;
}

void
EventQueue::insert(EventRecord *r)
{
    if (draining && r->when == _now) {
        appendLane(r);
    } else if (r->when - _now < window) {
        appendBucket(r);
    } else {
        overflow.push_back(r);
        std::push_heap(overflow.begin(), overflow.end(), later);
    }
    ++numPending;
    ++pstats.scheduled;
    if (numPending > pstats.maxPending)
        pstats.maxPending = numPending;
}

EventQueue::EventRecord *
EventQueue::foreignRecord(LaneId lane, Tick when, Tick sendTick,
                          LaneId senderLane)
{
    // when == _now is legal: a mailbox delivery dated exactly the
    // tick about to run still executes in key order.
    if (when < _now)
        panic("foreign event at tick %llu but now is %llu "
              "(cross-partition events need >= 1 tick of lookahead)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    if (lane >= numLanes)
        panic("foreign event on lane %u but only %u lanes configured",
              lane, numLanes);
    EventRecord *r = allocRecord();
    r->when = when;
    r->sendTick = sendTick;
    r->seq = nextSeq++;
    r->lane = lane;
    r->senderLane = senderLane;
    return r;
}

void
EventQueue::insertForeign(EventRecord &mail)
{
    EventRecord *r =
        foreignRecord(mail.lane, mail.when, mail.sendTick, mail.senderLane);
    mail.op(&mail, Act::Move, r);
    insert(r);
}

void
EventQueue::promote()
{
    // maxTick-adjacent clocks cannot overflow the boundary in any
    // real run, but saturate anyway so the comparison stays sound.
    const Tick boundary = (_now > maxTick - window) ? maxTick
                                                    : _now + window;
    while (!overflow.empty() && overflow.front()->when < boundary) {
        std::pop_heap(overflow.begin(), overflow.end(), later);
        EventRecord *r = overflow.back();
        overflow.pop_back();
        // Heap pops ascend in (when, seq); per-sender FIFO holds
        // because one sender's records carry ascending seqs. Any
        // cross-sender misordering against records already in the
        // bucket is repaired by the scatter-time sort check.
        appendBucket(r);
    }
}

Tick
EventQueue::nextRingTick() const
{
    const std::size_t s = static_cast<std::size_t>(_now) & bucketMask;
    std::size_t w = s >> 6;
    const unsigned b = static_cast<unsigned>(s & 63);
    // Circular scan starting at bucket s: high bits of word w first,
    // then the following words, then the low bits of word w.
    std::uint64_t word = occ[w] & (~std::uint64_t{0} << b);
    for (std::size_t n = 0; n < numWords; ++n) {
        if (word) {
            const std::size_t idx =
                (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
            return _now + ((idx - s) & bucketMask);
        }
        w = (w + 1) & (numWords - 1);
        word = occ[w];
    }
    if (b) {
        word = occ[s >> 6] & (~std::uint64_t{0} >> (64 - b));
        if (word) {
            const std::size_t idx =
                ((s >> 6) << 6) |
                static_cast<std::size_t>(std::countr_zero(word));
            return _now + ((idx - s) & bucketMask);
        }
    }
    panic("event ring count %zu but no occupied bucket", ringCount);
}

void
EventQueue::sortLane(LaneId l)
{
    Lane &lane = lanes[l];
    sortScratch.clear();
    for (EventRecord *r = lane.head; r; r = r->next)
        sortScratch.push_back(r);
    std::stable_sort(sortScratch.begin(), sortScratch.end(),
                     [](const EventRecord *a, const EventRecord *b) {
                         return senderBefore(a, b);
                     });
    EventRecord *head = nullptr, *tail = nullptr;
    for (EventRecord *r : sortScratch) {
        r->next = nullptr;
        (tail ? tail->next : head) = r;
        tail = r;
    }
    lane.head = head;
    lane.tail = tail;
    lane.dirty = false;
    ++pstats.laneSorts;
}

void
EventQueue::runTick(Tick t)
{
    if (t != _now)
        panic("runTick(%llu) but now is %llu",
              static_cast<unsigned long long>(t),
              static_cast<unsigned long long>(_now));
    const std::size_t idx = static_cast<std::size_t>(t) & bucketMask;
    Bucket &b = buckets[idx];

    // Scatter the tick's FIFO bucket into per-lane chains, watching
    // for out-of-key-order appends (only cross-partition mailbox
    // deliveries can produce them; serial runs scatter pre-sorted).
    for (EventRecord *r = b.head; r;) {
        EventRecord *next = r->next;
        Lane &l = lanes[r->lane];
        r->next = nullptr;
        if (l.tail) {
            if (senderBefore(r, l.tail))
                l.dirty = true;
            l.tail->next = r;
        } else {
            l.head = r;
            laneOcc[r->lane >> 6] |= std::uint64_t{1} << (r->lane & 63);
        }
        l.tail = r;
        --ringCount;
        r = next;
    }
    if (b.head) {
        b.head = b.tail = nullptr;
        occ[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    // Execute lanes in ascending order. Callbacks may append
    // same-tick events to the current or any later lane; the
    // occupancy rescan picks up lanes that only just became occupied.
    draining = true;
    for (LaneId l = nextOccupiedLane(0); l < numLanes;
         l = nextOccupiedLane(l)) {
        Lane &lane = lanes[l];
        if (lane.dirty)
            sortLane(l);
        curLane = l;
        while (EventRecord *r = lane.head) {
            lane.head = r->next;
            if (!lane.head)
                lane.tail = nullptr;
            --numPending;
            ++executed;
            r->op(r, Act::Run, nullptr);
            freeRecord(r);
        }
        laneOcc[l >> 6] &= ~(std::uint64_t{1} << (l & 63));
    }
    draining = false;
    curLane = 0;
}

EventQueue::DrainResult
EventQueue::drain(Tick limit)
{
    const Tick deadline = (limit == maxTick) ? maxTick : _now + limit;
    while (numPending) {
        const Tick t = ringCount ? nextRingTick() : overflow.front()->when;
        if (t > deadline)
            return DrainResult::LimitHit;
        _now = t;
        promote();
        runTick(t);
    }
    return DrainResult::Drained;
}

void
EventQueue::runUntil(Tick until)
{
    while (numPending) {
        const Tick t = ringCount ? nextRingTick() : overflow.front()->when;
        if (t > until)
            break;
        _now = t;
        promote();
        runTick(t);
    }
    if (_now < until) {
        _now = until;
        promote();
    }
}

} // namespace misar
