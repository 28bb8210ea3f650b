/**
 * @file
 * Unit tests for the 2D-mesh NoC: delivery, ordering, latency
 * scaling, contention, multi-flit packets, stress traffic, and the
 * switch allocator's grant sequence under faults.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "noc/mesh.hh"
#include "resil/noc_fault_injector.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace misar {
namespace noc {
namespace {

/** Test payload carrying an identifying tag. */
class TestPacket : public Packet
{
  public:
    TestPacket(CoreId src, CoreId dst, unsigned size, int tag)
        : Packet(src, dst, size), tag(tag)
    {}
    int tag;
};

struct MeshFixture
{
    EventQueue eq;
    NocConfig cfg;
    StatRegistry stats;
    std::unique_ptr<Mesh> mesh;
    std::vector<std::vector<int>> received; // per-tile tags, in order
    std::vector<Tick> recvTick;

    explicit MeshFixture(unsigned dim)
    {
        mesh = std::make_unique<Mesh>(eq, cfg, dim, stats);
        received.resize(dim * dim);
        for (CoreId t = 0; t < dim * dim; ++t) {
            mesh->setSink(t, [this, t](std::shared_ptr<Packet> p) {
                auto *tp = static_cast<TestPacket *>(p.get());
                received[t].push_back(tp->tag);
                recvTick.push_back(eq.now());
            });
        }
    }

    void
    send(CoreId s, CoreId d, int tag, unsigned size = ctrlBytes,
         unsigned vnet = 0)
    {
        auto p = std::make_shared<TestPacket>(s, d, size, tag);
        p->vnet = vnet;
        mesh->send(std::move(p));
    }
};

TEST(Mesh, DeliversSingleControlPacket)
{
    MeshFixture f(4);
    f.send(0, 15, 42);
    EXPECT_TRUE(f.eq.run());
    ASSERT_EQ(f.received[15].size(), 1u);
    EXPECT_EQ(f.received[15][0], 42);
}

TEST(Mesh, LocalLoopbackDelivers)
{
    MeshFixture f(4);
    f.send(5, 5, 7);
    f.eq.run();
    ASSERT_EQ(f.received[5].size(), 1u);
    EXPECT_EQ(f.received[5][0], 7);
    // Loopback should be fast (no mesh traversal).
    EXPECT_LE(f.eq.now(), 4u);
}

TEST(Mesh, LatencyScalesWithHops)
{
    // One-hop and six-hop deliveries on an otherwise idle mesh.
    Tick one_hop, six_hop;
    {
        MeshFixture f(4);
        f.send(0, 1, 1);
        f.eq.run();
        one_hop = f.eq.now();
    }
    {
        MeshFixture f(4);
        f.send(0, 15, 1);
        f.eq.run();
        six_hop = f.eq.now();
    }
    EXPECT_GT(six_hop, one_hop);
    // Each extra hop costs routerLatency + linkLatency + 1 arb cycle.
    EXPECT_GE(six_hop - one_hop, 5u * 3u);
}

TEST(Mesh, HopDistance)
{
    MeshFixture f(4);
    EXPECT_EQ(f.mesh->hopDistance(0, 0), 0u);
    EXPECT_EQ(f.mesh->hopDistance(0, 3), 3u);
    EXPECT_EQ(f.mesh->hopDistance(0, 15), 6u);
    EXPECT_EQ(f.mesh->hopDistance(5, 6), 1u);
    EXPECT_EQ(f.mesh->hopDistance(12, 3), 6u);
}

TEST(Mesh, PointToPointOrderPreserved)
{
    // Same src, dst, vnet: packets must arrive in injection order.
    MeshFixture f(4);
    for (int i = 0; i < 20; ++i)
        f.send(0, 15, i);
    f.eq.run();
    ASSERT_EQ(f.received[15].size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(f.received[15][i], i);
}

TEST(Mesh, MultiFlitDataPacketDelivered)
{
    MeshFixture f(4);
    f.send(2, 13, 9, dataBytes, 1);
    f.eq.run();
    ASSERT_EQ(f.received[13].size(), 1u);
    EXPECT_EQ(f.received[13][0], 9);
}

TEST(Mesh, DataPacketSlowerThanControl)
{
    Tick ctrl, data;
    {
        MeshFixture f(4);
        f.send(0, 15, 1, ctrlBytes);
        f.eq.run();
        ctrl = f.eq.now();
    }
    {
        MeshFixture f(4);
        f.send(0, 15, 1, dataBytes);
        f.eq.run();
        data = f.eq.now();
    }
    // 72B at 16B/flit = 5 flits vs 1: serialization must show.
    EXPECT_GE(data, ctrl + 3);
}

TEST(Mesh, ManyToOneAllDelivered)
{
    MeshFixture f(4);
    for (CoreId s = 0; s < 16; ++s)
        if (s != 5)
            f.send(s, 5, static_cast<int>(s));
    f.eq.run();
    EXPECT_EQ(f.received[5].size(), 15u);
}

TEST(Mesh, BothVnetsDeliver)
{
    MeshFixture f(4);
    f.send(0, 15, 1, ctrlBytes, 0);
    f.send(0, 15, 2, dataBytes, 1);
    f.eq.run();
    EXPECT_EQ(f.received[15].size(), 2u);
}

TEST(Mesh, StressRandomTrafficAllDelivered)
{
    MeshFixture f(8);
    Rng rng(123);
    std::map<CoreId, unsigned> expect;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        CoreId s = static_cast<CoreId>(rng.range(64));
        CoreId d = static_cast<CoreId>(rng.range(64));
        unsigned size = rng.range(2) ? ctrlBytes : dataBytes;
        unsigned vnet = static_cast<unsigned>(rng.range(2));
        f.send(s, d, i, size, vnet);
        ++expect[d];
    }
    ASSERT_TRUE(f.eq.run(2000000));
    for (auto &[d, cnt] : expect)
        EXPECT_EQ(f.received[d].size(), cnt) << "tile " << d;
    EXPECT_EQ(f.stats.counter("noc.packetsSent").value(),
              static_cast<std::uint64_t>(n));
}

TEST(Mesh, HotspotContentionIncreasesLatency)
{
    // Average latency under hotspot load must exceed the idle
    // latency of the same route.
    Tick idle;
    {
        MeshFixture f(4);
        f.send(0, 15, 0, dataBytes);
        f.eq.run();
        idle = f.eq.now();
    }
    MeshFixture f(4);
    for (int i = 0; i < 50; ++i)
        f.send(0, 15, i, dataBytes);
    f.eq.run();
    EXPECT_GT(f.eq.now(), idle + 100);
    double avg = f.stats.average("noc.packetLatency").mean();
    EXPECT_GT(avg, static_cast<double>(idle));
}

TEST(Mesh, PacketLatencyStatRecorded)
{
    MeshFixture f(4);
    f.send(0, 15, 1);
    f.eq.run();
    EXPECT_EQ(f.stats.average("noc.packetLatency").count(), 1u);
    EXPECT_GT(f.stats.average("noc.packetLatency").mean(), 0.0);
}

TEST(Mesh, SingleTileMeshLoopbackOnly)
{
    MeshFixture f(1);
    f.send(0, 0, 3);
    f.eq.run();
    ASSERT_EQ(f.received[0].size(), 1u);
}

TEST(Mesh, BackpressureDoesNotDropPackets)
{
    // Tiny buffers + a hotspot: credit flow control must throttle
    // without losing or reordering anything.
    EventQueue eq;
    NocConfig cfg;
    cfg.bufferDepth = 2;
    StatRegistry stats;
    Mesh mesh(eq, cfg, 4, stats);
    std::vector<int> got;
    for (CoreId t = 0; t < 16; ++t) {
        mesh.setSink(t, [&got, t](std::shared_ptr<Packet> p) {
            if (t == 15)
                got.push_back(static_cast<TestPacket *>(p.get())->tag);
        });
    }
    for (int i = 0; i < 60; ++i) {
        auto p = std::make_shared<TestPacket>(0, 15, dataBytes, i);
        p->vnet = 1;
        mesh.send(std::move(p));
    }
    ASSERT_TRUE(eq.run(2000000));
    ASSERT_EQ(got.size(), 60u);
    for (int i = 0; i < 60; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(Mesh, WormholeInterleavesDistinctSources)
{
    // Two sources streaming data packets through a shared column:
    // both streams must make progress (no starvation) and arrive
    // in per-source order.
    EventQueue eq;
    NocConfig cfg;
    StatRegistry stats;
    Mesh mesh(eq, cfg, 4, stats);
    std::vector<int> from0, from4;
    for (CoreId t = 0; t < 16; ++t) {
        mesh.setSink(t, [&, t](std::shared_ptr<Packet> p) {
            auto *tp = static_cast<TestPacket *>(p.get());
            if (t == 12) {
                (tp->tag < 100 ? from0 : from4).push_back(tp->tag);
            }
        });
    }
    for (int i = 0; i < 10; ++i) {
        mesh.send(std::make_shared<TestPacket>(0, 12, dataBytes, i));
        mesh.send(std::make_shared<TestPacket>(4, 12, dataBytes,
                                               100 + i));
    }
    ASSERT_TRUE(eq.run(2000000));
    ASSERT_EQ(from0.size(), 10u);
    ASSERT_EQ(from4.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(from0[i], i);
        EXPECT_EQ(from4[i], 100 + i);
    }
}

TEST(Mesh, VnetsDoNotBlockEachOther)
{
    // Saturate vnet 0 towards a hotspot; a vnet-1 packet through the
    // same column must still get through promptly.
    EventQueue eq;
    NocConfig cfg;
    cfg.bufferDepth = 2;
    StatRegistry stats;
    Mesh mesh(eq, cfg, 4, stats);
    Tick vnet1_arrival = 0;
    unsigned delivered0 = 0;
    for (CoreId t = 0; t < 16; ++t) {
        mesh.setSink(t, [&, t](std::shared_ptr<Packet> p) {
            auto *tp = static_cast<TestPacket *>(p.get());
            if (tp->tag == 999)
                vnet1_arrival = eq.now();
            else
                ++delivered0;
        });
    }
    for (int i = 0; i < 40; ++i)
        mesh.send(std::make_shared<TestPacket>(0, 15, dataBytes, i));
    auto p = std::make_shared<TestPacket>(0, 15, ctrlBytes, 999);
    p->vnet = 1;
    mesh.send(std::move(p));
    ASSERT_TRUE(eq.run(2000000));
    EXPECT_EQ(delivered0, 40u);
    EXPECT_GT(vnet1_arrival, 0u);
    // The reply-class packet must not wait for the whole vnet-0 queue.
    EXPECT_LT(vnet1_arrival, eq.now() / 2);
}

// Property: on an idle mesh, delivery latency is monotonically
// non-decreasing in hop distance.
class HopLatencyTest : public ::testing::TestWithParam<CoreId>
{};

TEST_P(HopLatencyTest, LatencyMatchesDistanceFormula)
{
    CoreId dst = GetParam();
    MeshFixture f(8);
    f.send(0, dst, 1);
    f.eq.run();
    unsigned hops = f.mesh->hopDistance(0, dst);
    double lat = f.stats.average("noc.packetLatency").mean();
    // Idle-mesh latency: ~(router+link+arb) per hop plus endpoint
    // overheads; just check it's ordered and bounded.
    EXPECT_GE(lat, 3.0 * hops);
    EXPECT_LE(lat, 3.0 + 6.0 * hops + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Distances, HopLatencyTest,
                         ::testing::Values<CoreId>(1, 2, 7, 8, 36, 63));

// ---------------------------------------------------------------------
// Switch allocation
// ---------------------------------------------------------------------

TEST(FlitRing, OccupancyBitTracksEmptinessAcrossWrap)
{
    std::uint16_t mask = 0x8000; // other rings' bits stay untouched
    FlitRing r;
    r.init(3, &mask, 4);
    for (unsigned round = 0; round < 5; ++round) {
        r.push_back(Flit{});
        EXPECT_EQ(mask, 0x8010) << round;
        r.push_back(Flit{});
        r.pop_front();
        r.pop_front();
        EXPECT_EQ(mask, 0x8000) << round; // head walked across the end
    }
    for (unsigned i = 0; i < 3; ++i) {
        Flit f;
        f.packetSeq = i;
        r.push_back(f);
    }
    EXPECT_TRUE(r.full());
    EXPECT_EQ(r.at(2).packetSeq, 2u);
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(mask, 0x8000);
}

/** A seeded traffic scenario for the grant-sequence golden test. */
struct GrantScenario
{
    const char *name;
    unsigned dim;
    int packets;
    Tick window;                 ///< injection ticks drawn in [0, window)
    std::vector<LinkKill> linkKills;
    std::vector<RouterKill> routerKills;
    double corruptProb;
    std::uint64_t digest;        ///< FNV-1a of the trace below
};

/** FNV-1a (64-bit) over @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Run @p sc and return its trace: every delivery as (tick, tile,
 * tag) in delivery order, then each router's per-port forwarded-flit
 * count and the NoC stats. Every grant the allocators make shows up
 * in it as a delivery tick or a forwarded flit.
 */
std::string
grantTrace(const GrantScenario &sc, StatRegistry &stats,
           std::vector<int> &deliveries)
{
    deliveries.assign(static_cast<std::size_t>(sc.packets), 0);
    EventQueue eq;
    NocConfig cfg;
    cfg.reliable = !sc.linkKills.empty() || !sc.routerKills.empty() ||
                   sc.corruptProb > 0;
    Mesh mesh(eq, cfg, sc.dim, stats);
    std::ostringstream os;
    for (CoreId t = 0; t < sc.dim * sc.dim; ++t)
        mesh.setSink(t, [&, t](std::shared_ptr<Packet> p) {
            const int tag = static_cast<TestPacket *>(p.get())->tag;
            ++deliveries[static_cast<std::size_t>(tag)];
            os << eq.now() << ' ' << t << ' ' << tag << '\n';
        });
    ResilConfig rc;
    rc.linkKills = sc.linkKills;
    rc.routerKills = sc.routerKills;
    rc.flitCorruptProb = sc.corruptProb;
    rc.faultSeed = 4242;
    std::unique_ptr<resil::NocFaultInjector> inj;
    if (cfg.reliable) {
        inj = std::make_unique<resil::NocFaultInjector>(eq, rc, mesh,
                                                        stats);
        inj->start();
    }
    Rng rng(977);
    const unsigned tiles = sc.dim * sc.dim;
    for (int i = 0; i < sc.packets; ++i) {
        const CoreId s = static_cast<CoreId>(rng.range(tiles));
        const CoreId d = static_cast<CoreId>(rng.range(tiles));
        const unsigned size = rng.range(2) ? ctrlBytes : dataBytes;
        const unsigned vnet = static_cast<unsigned>(rng.range(2));
        const Tick at = rng.range(sc.window);
        eq.schedule(at, [&mesh, s, d, size, vnet, i] {
            auto p = std::make_shared<TestPacket>(s, d, size, i);
            p->vnet = vnet;
            mesh.send(std::move(p));
        });
    }
    EXPECT_TRUE(eq.run(50000000));
    for (unsigned r = 0; r < tiles; ++r)
        for (unsigned p = 0; p < numPorts; ++p)
            os << mesh.router(r).forwardedFlits(static_cast<Port>(p))
               << (p + 1 < numPorts ? ' ' : '\n');
    stats.dump(os);
    return os.str();
}

void
PrintTo(const GrantScenario &sc, std::ostream *os)
{
    *os << sc.name;
}

class GrantSequence : public ::testing::TestWithParam<GrantScenario>
{};

/**
 * The switch allocator grants flits in the same order as the
 * original scan over all (vnet, input) buffers per output: the
 * digests were recorded with that scan. The faulted scenarios drive
 * the paths that change buffer occupancy outside a plain grant —
 * fault-time drops, poison tails from reconfiguration, router kills
 * — and two link kills install new route tables mid-run.
 */
TEST_P(GrantSequence, MatchesRecordedDigest)
{
    const GrantScenario &sc = GetParam();
    StatRegistry stats;
    std::vector<int> deliveries;
    const std::string trace = grantTrace(sc, stats, deliveries);
    EXPECT_EQ(fnv1a(trace), sc.digest)
        << std::hex << "0x" << fnv1a(trace);
    // Exactly-once delivery, except to and from a killed router.
    for (int n : deliveries)
        EXPECT_EQ(n, sc.routerKills.empty() ? 1 : std::min(n, 1));
    EXPECT_EQ(stats.counterValue("noc.pktsCorrupted") > 0,
              sc.corruptProb > 0);
    // Flits were dropped at fault time, not only granted, and every
    // kill installed new route tables mid-run.
    EXPECT_EQ(stats.counterValue("noc.flitsDropped") > 0,
              !sc.linkKills.empty());
    EXPECT_EQ(stats.counterValue("noc.reconfigs"),
              sc.linkKills.size() + sc.routerKills.size());
    // Worms severed by the router kill were flushed with poison tails.
    EXPECT_EQ(stats.counterValue("noc.poisonTails") > 0,
              !sc.routerKills.empty());
    EXPECT_EQ(stats.counterValue("noc.deadLinks"), sc.linkKills.size());
    EXPECT_EQ(stats.counterValue("noc.deadRouters"),
              sc.routerKills.size());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GrantSequence,
    ::testing::Values(
        GrantScenario{"Clean8x8", 8, 3000, 3000, {}, {}, 0.0,
                      0x187306068f5c3705ULL},
        GrantScenario{"LinkKillsCorruptionReroute", 4, 4000, 3000,
                      {{5, 6, 300}, {9, 10, 1200}, {6, 7, 1800}}, {}, 0.02,
                      0x1a08eaa4afc2959fULL},
        GrantScenario{"RouterKill", 4, 4000, 3000, {{1, 2, 400}},
                      {{10, 700}}, 0.01, 0x99cd6410e86e38bcULL}),
    [](const ::testing::TestParamInfo<GrantScenario> &i) {
        return std::string(i.param.name);
    });

} // namespace
} // namespace noc
} // namespace misar
