#include "sim/parallel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace misar {

ParallelEngine::Record *
ParallelEngine::MailBuf::push()
{
    if (count == chunks.size() * chunkLen)
        chunks.push_back(std::make_unique_for_overwrite<Record[]>(chunkLen));
    return &at(count++);
}

Tick
ParallelEngine::MailBuf::minWhen() const
{
    Tick t = maxTick;
    for (std::size_t i = 0; i < count; ++i)
        t = std::min(t, at(i).when);
    return t;
}

void
ParallelEngine::MailBuf::deliverTo(EventQueue &q)
{
    for (std::size_t i = 0; i < count; ++i)
        q.insertForeign(at(i));
    count = 0;
}

void
ParallelEngine::MailBuf::clear()
{
    for (std::size_t i = 0; i < count; ++i)
        EventQueue::dropRecord(at(i));
    count = 0;
}

ParallelEngine::ParallelEngine(EventQueue &global,
                               std::vector<EventQueue *> parts_in,
                               std::vector<unsigned> laneToPart_in)
    : global(global), parts(std::move(parts_in)),
      laneToPart(std::move(laneToPart_in)),
      numParts(static_cast<unsigned>(parts.size())), handles(numParts),
      published(numParts),
      mailboxes(static_cast<std::size_t>(numParts) * numParts),
      laneZeroMail(numParts), bar(numParts)
{
    if (numParts < 2)
        panic("parallel engine needs >= 2 partitions");

    // Each partition queue owns a contiguous lane range; derive it
    // from the lane map so the hook can insert in-partition sends
    // inline and only mail genuinely foreign ones.
    for (unsigned p = 0; p < numParts; ++p) {
        handles[p].engine = this;
        handles[p].src = p;
        LaneId lo = 0, hi = 0;
        bool seen = false;
        for (LaneId l = 1; l < laneToPart.size(); ++l) {
            if (laneToPart[l] != p)
                continue;
            if (!seen) {
                lo = l;
                seen = true;
            } else if (l != hi) {
                panic("partition %u owns non-contiguous lanes", p);
            }
            hi = l + 1;
        }
        if (!seen)
            panic("partition %u owns no lanes", p);
        parts[p]->setCrossHook(&handles[p], &ParallelEngine::hook, lo, hi);
    }

    threads.reserve(numParts - 1);
    for (unsigned p = 1; p < numParts; ++p)
        threads.emplace_back([this, p] { workerLoop(p); });
}

ParallelEngine::~ParallelEngine()
{
    shutdown();
}

void
ParallelEngine::shutdown()
{
    if (joined)
        return;
    joined = true;
    ctlStop = true;
    barrier(0);
    for (auto &t : threads)
        t.join();
    for (unsigned p = 0; p < numParts; ++p)
        parts[p]->setCrossHook(nullptr, nullptr, 0, 0);
}

ParallelEngine::Record *
ParallelEngine::hook(void *ctx, LaneId dstLane, Tick when)
{
    Handle *h = static_cast<Handle *>(ctx);
    ParallelEngine *e = h->engine;
    if (dstLane >= e->laneToPart.size())
        panic("cross event to unmapped lane %u", dstLane);
    const unsigned dst = e->laneToPart[dstLane];
    ++h->sent;
    if (dst == e->numParts) {
        h->laneZeroMin = std::min(h->laneZeroMin, when);
        return e->laneZeroMail[h->src].push();
    }
    h->outMin = std::min(h->outMin, when);
    return e->box(h->src, dst).gen[h->gen].push();
}

std::uint64_t
ParallelEngine::crossEvents() const
{
    std::uint64_t n = 0;
    for (const Handle &h : handles)
        n += h.sent;
    return n;
}

std::size_t
ParallelEngine::pending() const
{
    std::size_t n = global.pending();
    for (const EventQueue *q : parts)
        n += q->pending();
    for (const Mailbox &m : mailboxes)
        n += m.gen[0].size() + m.gen[1].size();
    for (const MailBuf &m : laneZeroMail)
        n += m.size();
    return n;
}

Tick
ParallelEngine::minNextTick() const
{
    Tick t = global.nextEventTick();
    for (const EventQueue *q : parts)
        t = std::min(t, q->nextEventTick());
    for (const Mailbox &m : mailboxes)
        t = std::min({t, m.gen[0].minWhen(), m.gen[1].minWhen()});
    for (const MailBuf &m : laneZeroMail)
        t = std::min(t, m.minWhen());
    return t;
}

void
ParallelEngine::alignClocks(Tick t)
{
    for (EventQueue *q : parts)
        q->advanceTo(t);
    global.advanceTo(t);
}

void
ParallelEngine::flushMail()
{
    // Every clock is at or before the earliest mailed tick (the round
    // loop stopped short of it), so each delivery is still in the
    // receiver's future.
    for (unsigned src = 0; src < numParts; ++src) {
        for (unsigned dst = 0; dst < numParts; ++dst)
            for (MailBuf &g : box(src, dst).gen)
                g.deliverTo(*parts[dst]);
        laneZeroMail[src].deliverTo(global);
    }
    for (Handle &h : handles) {
        h.outMin = maxTick;
        h.laneZeroMin = maxTick;
    }
}

void
ParallelEngine::runLaneZero(Tick t)
{
    for (MailBuf &m : laneZeroMail)
        m.deliverTo(global);
    for (Handle &h : handles)
        h.laneZeroMin = maxTick;
    // Align every clock first: global events may call into any tile
    // and schedule same-tick follow-ups onto tile lanes, which must
    // land at t.
    alignClocks(t);
    if (global.nextEventTick() == t)
        global.runTick(t);
    globalNext = global.nextEventTick();
    ++laneZeroCount;
}

Tick
ParallelEngine::roundLoop(unsigned p)
{
    Handle &h = handles[p];
    EventQueue &q = *parts[p];
    unsigned par = ctlPar;
    Tick last = maxTick;
    for (;;) {
        // Every thread reads the same slots, so every thread takes
        // the same T and the same exit decision.
        Tick t = maxTick, t0 = maxTick;
        for (const Published &s : published) {
            t = std::min(t, s.next[par]);
            t0 = std::min(t0, s.laneZero[par]);
        }
        t = std::min(t, t0);
        if (t == maxTick || t > ctlUntil)
            break;
        if (t0 == t) {
            // Lane 0 runs first within a tick, alone.
            if (p == 0)
                runLaneZero(t);
            barrier(p);
        }
        for (unsigned src = 0; src < numParts; ++src)
            if (src != p)
                box(src, p).gen[par ^ 1].deliverTo(q);
        h.gen = par;
        h.outMin = maxTick;
        if (q.nextEventTick() == t) {
            q.advanceTo(t);
            q.runTick(t);
        }
        par ^= 1;
        Published &mine = published[p];
        mine.next[par] = std::min(q.nextEventTick(), h.outMin);
        mine.laneZero[par] =
            p == 0 ? std::min(h.laneZeroMin, globalNext) : h.laneZeroMin;
        last = t;
        if (p == 0)
            ++roundCount;
        barrier(p);
    }
    // Exit barrier: nobody reads the slots or touches a queue past
    // this point, so the master may deliver mail and republish.
    barrier(p);
    if (p == 0)
        ctlPar = par;
    return last;
}

void
ParallelEngine::workerLoop(unsigned p)
{
    for (;;) {
        barrier(p);
        if (ctlStop)
            return;
        roundLoop(p);
    }
}

Tick
ParallelEngine::run(Tick until)
{
    // Workers are parked and no mail is in flight: publish every
    // partition from scratch, so events scheduled from outside the
    // engine since the last call are seen.
    globalNext = global.nextEventTick();
    for (unsigned p = 0; p < numParts; ++p) {
        published[p].next[ctlPar] = parts[p]->nextEventTick();
        published[p].laneZero[ctlPar] = p == 0 ? globalNext : maxTick;
    }
    ctlUntil = until;
    barrier(0);
    const Tick last = roundLoop(0);
    flushMail();
    return last;
}

void
ParallelEngine::runUntil(Tick until)
{
    run(until);
    alignClocks(until);
}

void
ParallelEngine::drainAll()
{
    const Tick last = run(maxTick);
    if (last != maxTick)
        alignClocks(last);
}

} // namespace misar
