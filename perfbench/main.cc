/**
 * @file
 * The repository benchmark. One process runs one workload, drives
 * every layer through its public entry points (preset resolution,
 * System construction, thread bodies or the server harness,
 * runDetailed, the stat registry and ServerHarness::finalize), times
 * those calls from outside, checks the outputs and prints every
 * metric by name with its unit. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload fig6-64|server-16|pdes-x4|faults-16
 *             --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--source-id ID]
 *
 * Workloads (every simulated run starts with cold caches):
 *   fig6-64    the 26 catalog apps at 64 cores, pthread baseline and
 *              MSA/OMU-2 (closed loop, serial kernel); the paper's
 *              Fig 6 geomean is 1.43x
 *   server-16  server-poisson at 16 cores, offered 1.0-3.0 req/ktick
 *              in 0.25 steps, SLO 20000 ticks, under MSA/OMU-2 and
 *              MSA-0 (open loop, latency from the scheduled arrival)
 *   pdes-x4    radiosity/ocean/streamcluster/cholesky on msa64 and
 *              radiosity/ocean on msa256, under the PDES kernel with
 *              4 host threads
 *   faults-16  the 8 headline apps at 16 cores under the three fault
 *              presets and fault-free msa-omu, over 6 seeds derived
 *              from --seed
 *
 * Host time: serial runs are timed with their own thread's CPU clock
 * (the serial workloads run several independent simulations at once
 * on a small pool of host threads, so process CPU time would mix
 * them); PDES runs execute one at a time and report wall time plus
 * process CPU time. A workload is repeated while another repetition
 * fits in --seconds; host figures are the medians of the repetitions
 * and simulated figures must repeat exactly. The set-up figures come
 * from a separate phase that builds every run's system and thread
 * bodies over and over without running them.
 *
 * With --trace 1 a separate traced pass follows the timed passes: it
 * records spans around each layer call, arms the sync-wait profiler
 * and the resource-pressure monitor, and its cost relative to the
 * untraced pass is reported as obs.overhead_pct. End-to-end metrics
 * always come from the untraced passes.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/spans.hh"
#include "sim/logging.hh"
#include "srv/server_app.hh"
#include "system/presets.hh"
#include "system/system.hh"
#include "workload/app_catalog.hh"
#include "workload/synthetic_app.hh"

using namespace misar;
using perfbench::SpanRecorder;

namespace {

/**
 * About 8x the longest healthy run (raytrace-64 on the pthread
 * baseline, 23.7M ticks). A faulted run that livelocks only burns
 * host time until it reaches the limit, so a higher one would make
 * the host figures swing with the number of such runs.
 */
constexpr Tick tickLimit = 200000000ULL;
/** The server-16 latency SLO and the paper's Fig 6 geomean. */
constexpr Tick serverSlo = 20000;
constexpr double paperFig6Speedup = 1.43;
/** PDES host threads for pdes-x4 (the reference host has 4). */
constexpr unsigned pdesThreads = 4;
/** Fault seeds faults-16 derives from the workload seed. */
constexpr std::uint64_t faultSeeds = 6;
/** Stat-sampler period of the traced pass (drives the heatmap). */
constexpr Tick obsSampleInterval = 10000;
/**
 * Each of the two set-up phases, before and after the timed passes,
 * repeats on every host lane until both limits are reached, after one
 * discarded warm-up repetition. The host's fast moments come and go
 * within seconds, and two phases far apart catch one more often than
 * one longer phase.
 */
constexpr unsigned setupMinReps = 13;
constexpr double setupMinS = 1.0;

double
steadyS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
clockS(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** One simulated run. */
struct Job
{
    std::string app;
    std::string preset; ///< a sys::cliPresetFor name
    unsigned cores = 16;
    unsigned threads = 1; ///< SystemConfig::simThreads
    std::uint64_t seed = 1;
    double rate = 0.0; ///< offered req/ktick (server apps only)
    /** "msa" (MSA/OMU-2), "sw" (software sync) or "fault". */
    std::string leg;
    bool faulted() const { return leg == "fault"; }
    std::string
    label() const
    {
        std::string l = app + "/" + preset + "/seed" + std::to_string(seed);
        if (rate > 0)
            l += "/rate" + std::to_string(rate).substr(0, 4);
        if (threads > 1)
            l += "/x" + std::to_string(threads);
        return l;
    }
};

struct JobResult
{
    sys::RunOutcome outcome = sys::RunOutcome::LimitReached;
    Tick makespan = 0;
    Tick ticks = 0;
    std::uint64_t events = 0;
    EventQueue::PoolStats pool;
    /** Simulated counts by metric name; must repeat exactly. */
    std::map<std::string, double> sim;
    bool hasServer = false;
    srv::ServerStats server;
    /** Invariant-checker sweeps that found violations (fault presets). */
    unsigned invariantViolations = 0;
    /** @name Traced runs only. @{ */
    obs::LogHistogram syncWait;
    std::uint64_t overflowEvents = 0;
    std::uint64_t omuEpisodes = 0;
    double maxSliceOccupancy = 0.0;
    double maxNiQueueDepth = 0.0;
    /** @} */
    /** @name Host seconds inside runDetailed. @{ */
    double runCpuS = 0.0;
    double runWallS = 0.0;
    /** @} */

    /** The run did not finish, or finished with violated invariants. */
    bool
    failed() const
    {
        return outcome != sys::RunOutcome::Finished || invariantViolations;
    }
};

/** Layer counters read from the registry after a run. */
struct CounterSource
{
    const char *metric;
    const char *stat;
    bool suffix; ///< sum over every tile/core counter ending in stat
};

const CounterSource counterSources[] = {
    {"cpu.loads", ".loads", true},
    {"cpu.stores", ".stores", true},
    {"cpu.atomics", ".atomics", true},
    {"cpu.sync_instrs", ".syncInstrs", true},
    {"mem.l1_hits", ".l1.hits", true},
    {"mem.l1_misses", ".l1.misses", true},
    {"mem.l1_invalidations", ".l1.invalidations", true},
    {"mem.llc_transactions", ".llc.transactions", true},
    {"mem.llc_invalidations_sent", ".llc.invalidationsSent", true},
    {"mem.crossed_snoops", ".l1.crossedSnoops", true},
    {"noc.packets", "noc.packetsSent", false},
    {"noc.local_loopbacks", "noc.localLoopbacks", false},
    {"msa.requests", ".msa.requests", true},
    {"msa.allocations", ".msa.allocations", true},
    {"msa.evictions", ".msa.evictions", true},
    {"msa.lock_grants", ".msa.lockGrants", true},
    {"msa.barrier_releases", ".msa.barrierReleases", true},
    {"msa.silent_locks", ".msa.silentLocks", true},
    {"msa.omu_increments", ".msa.omuIncrements", true},
    {"msa.llc_grants", ".llc.msaGrants", true},
    {"sync.hw_ops", "sync.hwOps", false},
    {"sync.sw_ops", "sync.swOps", false},
    {"resil.timeouts", "resil.timeouts", false},
    {"resil.retries", "resil.retries", false},
    {"resil.aborted_ops", "sync.abortedOps", false},
    {"resil.noc_retransmits", "noc.rel.retransmits", false},
    {"resil.noc_dedups", "noc.rel.dedups", false},
    {"resil.detour_hops", "noc.detourHops", false},
    {"resil.lock_revocations", ".msa.lockRevocations", true},
    {"resil.fenced_releases", ".msa.fencedReleases", true},
    {"resil.rehomed_vars", ".msa.rehomedVars", true},
};

/** Read the run's simulated results: the "stats" layer call. */
void
readStats(sys::System &s, const srv::ServerHarness *harness, JobResult &r)
{
    StatRegistry &st = s.stats();
    r.makespan = s.makespan();
    r.ticks = s.eventQueue().now();
    r.events = s.eventQueue().executedEvents();
    r.pool = s.eventQueue().poolStats();
    for (const CounterSource &c : counterSources)
        r.sim[c.metric] = double(c.suffix ? st.sumCountersSuffix(c.stat)
                                          : st.counterValue(c.stat));
    r.sim["resil.offline_sheds"] =
        double(st.sumCountersSuffix(".msa.offlineLockAborts") +
               st.sumCountersSuffix(".msa.offlineRwAborts") +
               st.sumCountersSuffix(".msa.offlineBarrierAborts") +
               st.sumCountersSuffix(".msa.offlineCondAborts"));
    const StatAverage &lat = st.average("noc.packetLatency");
    r.sim["noc.latency_sum"] = lat.sum();
    r.sim["noc.latency_count"] = double(lat.count());
    r.sim["makespan"] = double(r.makespan);
    r.sim["outcome"] = double(static_cast<int>(r.outcome));
    if (harness) {
        r.hasServer = true;
        r.server = harness->finalize(r.makespan);
        const srv::ServerStats &v = r.server;
        r.sim["srv.generated"] = double(v.generated);
        r.sim["srv.completed"] = double(v.completed);
        r.sim["srv.rejected"] = double(v.rejected);
        r.sim["srv.rejected_slo"] = double(v.rejectedSlo);
        r.sim["srv.stranded"] = double(v.stranded);
        r.sim["srv.steals"] = double(v.steals);
        r.sim["srv.slo_met"] = double(v.sloMet);
        r.sim["srv.p50"] = double(v.latency.p50());
        r.sim["srv.p99"] = double(v.latency.p99());
    }
    if (s.syncProfiler())
        r.syncWait = s.syncProfiler()->overallWait();
    if (obs::ResourceMonitor *m = s.monitor()) {
        if (s.sampler())
            s.sampler()->sampleNow();
        m->finalize(s.eventQueue().now());
        r.overflowEvents = m->overflowEvents();
        r.omuEpisodes = m->omuEpisodes().size();
        r.maxSliceOccupancy = m->maxOfKind("msaOccupancy");
        r.maxNiQueueDepth = m->maxOfKind("niQueue");
    }
}

/**
 * One constructed simulated run: the System plus the layer objects
 * its thread bodies point into, so it must not move once built.
 */
struct Instance
{
    workload::AppSpec app;
    std::unique_ptr<sys::System> system;
    std::unique_ptr<sync::SyncLib> lib;
    workload::AppLayout layout;
    std::unique_ptr<srv::ServerHarness> harness;
    /** Steady-clock stamps around the two layer calls. */
    double w0 = 0, w1 = 0, w2 = 0;
    /** Thread-CPU seconds of System construction and thread bodies. */
    double systemS = 0, workloadS = 0;
};

/**
 * The system and workload layer calls of @p job: resolve the preset,
 * construct the System, then the sync library, layout or server
 * harness, and one thread body per core.
 */
std::unique_ptr<Instance>
build(const Job &job, bool traced)
{
    auto in = std::make_unique<Instance>();
    SystemConfig cfg;
    sync::SyncLib::Flavor flavor = sync::SyncLib::Flavor::Hw;
    if (!sys::cliPresetFor(job.preset, job.cores, 2, cfg, flavor))
        fatal("perfbench: unknown preset %s", job.preset.c_str());
    cfg.seed = job.seed;
    cfg.simThreads = job.threads;
    if (traced) {
        // The sync profiler only runs serially (SystemConfig::validate).
        cfg.obs.profileSync = job.threads == 1;
        cfg.obs.heatmapEnabled = true;
        cfg.obs.sampleInterval = obsSampleInterval;
    }
    cfg.validate();
    in->app = workload::appByName(job.app);
    if (in->app.server.enabled) {
        in->app.server.arrivalRate = job.rate;
        in->app.server.sloTicks = serverSlo;
    }

    in->w0 = steadyS();
    const double c0 = clockS(CLOCK_THREAD_CPUTIME_ID);
    in->system = std::make_unique<sys::System>(cfg);
    sys::System &s = *in->system;
    in->w1 = steadyS();
    const double c1 = clockS(CLOCK_THREAD_CPUTIME_ID);

    in->lib = std::make_unique<sync::SyncLib>(flavor, cfg.numCores);
    if (cfg.resil.coreFaultsEnabled())
        in->lib->setDeadQuery(
            [&s](CoreId c) { return s.isDeclaredDead(c); });
    if (in->app.server.enabled)
        in->harness = std::make_unique<srv::ServerHarness>(
            in->app.server, cfg.numCores, job.seed);
    for (CoreId c = 0; c < cfg.numCores; ++c)
        s.start(c, in->harness
                       ? in->harness->thread(s.api(c), in->lib.get())
                       : workload::appThread(s.api(c), in->app, in->layout,
                                             in->lib.get(), cfg.numCores,
                                             job.seed));
    in->w2 = steadyS();
    const double c2 = clockS(CLOCK_THREAD_CPUTIME_ID);
    in->systemS = c1 - c0;
    in->workloadS = c2 - c1;
    return in;
}

/**
 * Build, run and read one simulated run, timing each layer call.
 * With @p rec, the calls are also recorded as spans under
 * @p passSpan on timeline row @p lane.
 */
JobResult
runJob(const Job &job, bool traced, SpanRecorder *rec,
       std::uint64_t passSpan, unsigned lane)
{
    JobResult r;
    const std::uint64_t runSpan = rec ? rec->reserve() : 0;
    const std::unique_ptr<Instance> in = build(job, traced);
    sys::System &s = *in->system;
    // A violation fails this run's check instead of ending the process.
    if (resil::InvariantChecker *ic = s.invariantChecker())
        ic->setViolationHandler([&r](const std::vector<std::string> &v) {
            for (const std::string &msg : v)
                warn("invariant violation: %s", msg.c_str());
            ++r.invariantViolations;
        });

    // A PDES run's work is spread over its worker threads, which only
    // exist inside runDetailed; nothing else runs beside it.
    const clockid_t runClock = job.threads > 1 ? CLOCK_PROCESS_CPUTIME_ID
                                               : CLOCK_THREAD_CPUTIME_ID;
    const double w2 = steadyS();
    const double rc2 = clockS(runClock);
    r.outcome = s.runDetailed(tickLimit);
    const double w3 = steadyS();
    const double rc3 = clockS(runClock);

    readStats(s, in->harness.get(), r);
    const double w4 = steadyS();

    r.runCpuS = rc3 - rc2;
    r.runWallS = w3 - w2;
    if (rec) {
        const bool server = in->harness != nullptr;
        rec->record(rec->reserve(), "system.build", in->w0, in->w1, runSpan,
                    runSpan, lane);
        rec->record(rec->reserve(),
                    server ? "workload.harness_build"
                           : "workload.thread_build",
                    in->w1, in->w2, runSpan, runSpan, lane);
        rec->record(rec->reserve(), "system.runDetailed", w2, w3, runSpan,
                    runSpan, lane,
                    {{"events", double(r.events)},
                     {"makespan", double(r.makespan)},
                     {"cpu_s", r.runCpuS}});
        rec->record(rec->reserve(),
                    server ? "stats.read+finalize" : "stats.read", w3, w4,
                    runSpan, runSpan, lane);
        rec->record(runSpan, "run " + job.label(), in->w0, w4, passSpan,
                    runSpan, lane);
    }
    return r;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Pass
{
    std::vector<JobResult> results; ///< indexed like the job list
    double wallS = 0.0;

    double
    runCpuS() const
    {
        double c = 0.0;
        for (const JobResult &r : results)
            c += r.runCpuS;
        return c;
    }
};

/**
 * Run every job once. With @p lanes > 1 the (serial) jobs run on that
 * many host threads, each taking the next job in list order.
 */
Pass
runPass(const std::vector<Job> &jobs, unsigned lanes, bool traced,
        SpanRecorder *rec, const std::string &name)
{
    Pass p;
    p.results.resize(jobs.size());
    const std::uint64_t passSpan = rec ? rec->reserve() : 0;
    const double t0 = steadyS();
    std::atomic<std::size_t> next{0};
    auto work = [&](unsigned lane) {
        for (std::size_t k; (k = next.fetch_add(1)) < jobs.size();)
            p.results[k] = runJob(jobs[k], traced, rec, passSpan, lane);
    };
    if (lanes <= 1) {
        work(0);
    } else {
        std::vector<std::jthread> pool;
        for (unsigned l = 0; l < lanes; ++l)
            pool.emplace_back(work, l);
    }
    p.wallS = steadyS() - t0;
    if (rec)
        rec->record(passSpan, name, t0, t0 + p.wallS, 0, 0, 0);
    return p;
}

/** Each job's fastest build so far, in thread-CPU seconds. */
struct Setup
{
    std::vector<double> total, system, workload;
    unsigned reps = 0;

    explicit Setup(std::size_t jobs)
        : total(jobs, std::numeric_limits<double>::infinity()),
          system(total), workload(total)
    {}

    static double
    sum(const std::vector<double> &v)
    {
        double s = 0.0;
        for (double x : v)
            s += x;
        return s;
    }
};

/**
 * Build every job's system and thread bodies without running them, on
 * @p lanes host threads at once, each for at least setupMinReps
 * repetitions and setupMinS seconds, and keep each job's fastest
 * build. A build is a fixed amount of work done in well under a
 * millisecond, and the host only ever adds time to it: a single
 * timing, or the median of whole repetitions, varied by 2x from one
 * second to the next. Timed on one thread while the other hardware
 * threads idled, the fastest builds still moved by half from one run to
 * the next; with every lane building, as in the timed passes, they
 * moved by a tenth. The first repetition only warms the heap.
 */
void
measureSetup(const std::vector<Job> &jobs, unsigned lanes, Setup &out)
{
    std::vector<Setup> lane(lanes, Setup(jobs.size()));
    auto work = [&](unsigned l) {
        Setup &mine = lane[l];
        const double t0 = steadyS();
        for (unsigned rep = 0;
             rep <= setupMinReps || steadyS() - t0 < setupMinS; ++rep) {
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                // Lanes start at different jobs.
                const std::size_t i = (k + l * jobs.size() / lanes) %
                                      jobs.size();
                const std::unique_ptr<Instance> in = build(jobs[i], false);
                if (rep == 0)
                    continue;
                mine.total[i] =
                    std::min(mine.total[i], in->systemS + in->workloadS);
                mine.system[i] = std::min(mine.system[i], in->systemS);
                mine.workload[i] =
                    std::min(mine.workload[i], in->workloadS);
            }
            mine.reps += rep > 0;
        }
    };
    if (lanes <= 1) {
        // On this thread, whose heap arena the runs reuse.
        work(0);
    } else {
        std::vector<std::jthread> pool;
        for (unsigned l = 0; l < lanes; ++l)
            pool.emplace_back(work, l);
    }
    for (const Setup &mine : lane) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            out.total[i] = std::min(out.total[i], mine.total[i]);
            out.system[i] = std::min(out.system[i], mine.system[i]);
            out.workload[i] = std::min(out.workload[i], mine.workload[i]);
        }
        out.reps += mine.reps;
    }
}

struct Workload
{
    std::string name;
    std::vector<Job> jobs;
    unsigned lanes = 1;
    /** Host threads of the set-up phases. */
    unsigned setupLanes = 1;
};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    w.name = name;
    // Leave one hardware thread for the rest of the host: four busy
    // lanes on four vCPUs made every run's CPU time noisier.
    w.lanes = std::clamp(hw - 1, 1u, 3u);
    w.setupLanes = w.lanes;
    if (name == "fig6-64") {
        // Baseline leg first: its raytrace run is the longest, so it
        // starts early on the host-thread pool.
        for (const char *leg : {"sw", "msa"})
            for (const workload::AppSpec &a : workload::appCatalog())
                w.jobs.push_back({a.name,
                                  leg[0] == 's' ? "baseline" : "msa-omu",
                                  64, 1, seed, 0.0, leg});
    } else if (name == "server-16") {
        // Each rate draws its own schedule (both legs share it): with
        // one seed for all nine rates their luck is correlated, and the
        // workload's total work swung by +-5% from seed to seed.
        for (const char *leg : {"msa", "sw"})
            for (unsigned i = 0; i <= 8; ++i)
                w.jobs.push_back({"server-poisson",
                                  leg[0] == 'm' ? "msa-omu" : "msa0", 16, 1,
                                  splitmix64(seed * 9 + i), 1.0 + 0.25 * i,
                                  leg});
    } else if (name == "pdes-x4") {
        // Each run already uses pdesThreads host threads. Builds go one
        // at a time too: three msa256 systems at once set the peak RSS.
        w.lanes = w.setupLanes = 1;
        for (const char *app :
             {"radiosity", "ocean", "streamcluster", "cholesky"})
            w.jobs.push_back(
                {app, "msa-omu", 64, pdesThreads, seed, 0.0, "msa"});
        for (const char *app : {"radiosity", "ocean"})
            w.jobs.push_back(
                {app, "msa256", 0, pdesThreads, seed, 0.0, "msa"});
    } else if (name == "faults-16") {
        // How long a faulted run takes depends on its fault draw: with
        // three derived seeds the pass's work swung too much from one
        // workload seed to the next.
        for (std::uint64_t k = 0; k < faultSeeds; ++k) {
            const std::uint64_t s = splitmix64(seed * faultSeeds + k);
            for (const std::string &app : workload::headlineApps())
                for (const char *p :
                     {"msa-omu", "msa-omu-faults", "msa-omu2-nocfaults",
                      "msa-omu2-corefaults"})
                    w.jobs.push_back({app, p, 16, 1, s, 0.0,
                                      std::string(p) == "msa-omu" ? "msa"
                                                                  : "fault"});
        }
    } else {
        return false;
    }
    return true;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

/** A reported metric: BENCHMARK.json declares the same names and units. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef endToEnd[] = {
    {"setup_s", "s"},
    {"run_cpu_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"makespan_msa_kcyc", "kcyc"},
    {"done_frac", "frac"},
};

const MetricDef perLayer[] = {
    // Workload-specific simulated end-to-end figures (0 = not
    // applicable to this workload).
    {"fig6_gap_pct", "%"},
    {"makespan_sw_kcyc", "kcyc"},
    {"srv_p50_ticks", "ticks"},
    {"srv_p99_ticks", "ticks"},
    {"srv_max_rate", "req/ktick"},
    {"srv_sw_max_rate", "req/ktick"},
    {"srv_goodput", "req/ktick"},
    {"fault_slowdown", "x"},
    {"fail_frac", "frac"},
    // Layers.
    {"sim.events", "count"},
    {"sim.events_per_tick", "1/tick"},
    {"sim.ns_per_event", "ns"},
    {"sim.kticks_per_cpu_s", "kticks/s"},
    {"sim.pool_chunk_allocs", "count"},
    {"sim.heap_callbacks", "count"},
    {"sim.max_pending", "count"},
    {"sim.par.wall_speedup", "x"},
    {"sim.par.cpu_per_wall", "x"},
    {"system.build_s", "s"},
    {"workload.build_s", "s"},
    {"cpu.loads", "count"},
    {"cpu.stores", "count"},
    {"cpu.atomics", "count"},
    {"cpu.sync_instrs", "count"},
    {"mem.l1_hits", "count"},
    {"mem.l1_misses", "count"},
    {"mem.l1_miss_rate", "frac"},
    {"mem.l1_invalidations", "count"},
    {"mem.llc_transactions", "count"},
    {"mem.llc_invalidations_sent", "count"},
    {"mem.llc_txn_per_kcyc", "1/kcyc"},
    {"mem.crossed_snoops", "count"},
    {"noc.packets", "count"},
    {"noc.packet_latency_cyc", "cyc"},
    {"noc.packets_per_kcyc", "1/kcyc"},
    {"noc.local_loopbacks", "count"},
    {"msa.requests", "count"},
    {"msa.allocations", "count"},
    {"msa.evictions", "count"},
    {"msa.evictions_per_alloc", "frac"},
    {"msa.lock_grants", "count"},
    {"msa.barrier_releases", "count"},
    {"msa.silent_locks", "count"},
    {"msa.omu_increments", "count"},
    {"msa.llc_grants", "count"},
    {"sync.hw_ops", "count"},
    {"sync.sw_ops", "count"},
    {"sync.hw_coverage_pct", "%"},
    {"srv.generated", "count"},
    {"srv.completed", "count"},
    {"srv.rejected", "count"},
    {"srv.rejected_slo", "count"},
    {"srv.stranded", "count"},
    {"srv.steals", "count"},
    {"srv.achieved_rate", "req/ktick"},
    {"srv.goodput", "req/ktick"},
    {"resil.timeouts", "count"},
    {"resil.retries", "count"},
    {"resil.aborted_ops", "count"},
    {"resil.offline_sheds", "count"},
    {"resil.noc_retransmits", "count"},
    {"resil.noc_dedups", "count"},
    {"resil.detour_hops", "count"},
    {"resil.lock_revocations", "count"},
    {"resil.fenced_releases", "count"},
    {"resil.rehomed_vars", "count"},
    {"obs.sync_wait_p50_cyc", "cyc"},
    {"obs.sync_wait_p99_cyc", "cyc"},
    {"obs.overflow_events", "count"},
    {"obs.omu_episodes", "count"},
    {"obs.max_slice_occupancy", "entries"},
    {"obs.max_ni_queue_depth", "packets"},
    {"obs.overhead_pct", "%"},
};

/**
 * Output checks; each failure is printed and fails the command. A run
 * under injected faults that does not finish cleanly is a failed run
 * instead: it is printed and counted (the result's "failed",
 * fail_frac, done_frac), since how often that happens is what the
 * resilience layer is measured on.
 */
struct Checks
{
    unsigned failedRuns = 0;
    unsigned failedChecks = 0;

    void
    fail(const std::string &what)
    {
        std::printf("CHECK FAILED: %s\n", what.c_str());
        ++failedChecks;
    }

    /** Per-run checks. */
    void
    run(const Job &j, const JobResult &r)
    {
        bool ok = true;
        auto bad = [&](const std::string &what) {
            if (j.faulted())
                std::printf("FAILED RUN: %s\n", what.c_str());
            else
                fail(what);
            ok = false;
        };
        if (r.outcome != sys::RunOutcome::Finished)
            bad(j.label() + " ended " + sys::runOutcomeName(r.outcome));
        if (r.invariantViolations)
            bad(j.label() + " violated simulator invariants");
        if (r.hasServer) {
            const srv::ServerStats &v = r.server;
            if (v.generated !=
                v.completed + v.rejected + v.rejectedSlo + v.stranded) {
                fail(j.label() + " lost requests: generated != completed "
                                 "+ rejected + rejectedSlo + stranded");
                ok = false;
            }
        }
        if (!j.faulted())
            for (const auto &[k, v] : r.sim)
                if (k.rfind("resil.", 0) == 0 && v != 0) {
                    fail(j.label() + " is fault-free but " + k + " = " +
                         std::to_string(v));
                    ok = false;
                }
        if (!ok)
            ++failedRuns;
    }

    /** Simulated results of two runs of one job must be identical. */
    void
    same(const Job &j, const JobResult &a, const JobResult &b,
         const char *what)
    {
        for (const auto &[k, v] : a.sim) {
            auto it = b.sim.find(k);
            if (it == b.sim.end() || it->second != v) {
                fail(j.label() + ": " + k + " differs " + what);
                return;
            }
        }
    }
};

/** The hardware and build the host figures were measured on. */
void
printFingerprint(const std::string &sourceId)
{
    std::string model = "unknown";
    std::ifstream f("/proc/cpuinfo");
    for (std::string line; std::getline(f, line);)
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
                "source=%s\n",
                std::thread::hardware_concurrency(), model.c_str(),
                __VERSION__, PERFBENCH_BUILD_TYPE, sourceId.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload fig6-64|server-16|pdes-x4|"
                 "faults-16 --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--source-id ID]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string wname;
    std::string seedArg;
    double seconds = 0.0;
    int trace = -1;
    std::string traceOut;
    std::string sourceId = "unknown";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const std::string v = argv[i + 1];
        if (a == "--workload")
            wname = v;
        else if (a == "--seed")
            seedArg = v;
        else if (a == "--seconds")
            seconds = std::atof(v.c_str());
        else if (a == "--trace")
            trace = v == "1" ? 1 : v == "0" ? 0 : -1;
        else if (a == "--trace-out")
            traceOut = v;
        else if (a == "--source-id")
            sourceId = v;
        else
            return usage();
    }
    if (argc % 2 == 0 || seedArg.empty() ||
        seedArg.find_first_not_of("0123456789") != std::string::npos ||
        seedArg.size() > 19 || seconds <= 0.0 || trace < 0)
        return usage();
    const std::uint64_t seed = std::strtoull(seedArg.c_str(), nullptr, 10);
    Workload w;
    if (!makeWorkload(wname, seed, w))
        return usage();

    setVerbose(false);
    printFingerprint(sourceId);
    std::printf("workload %s seed %llu: %zu simulated runs per pass, "
                "%u host lane(s), cold simulated caches\n",
                w.name.c_str(), (unsigned long long)seed, w.jobs.size(),
                w.lanes);
    std::fflush(stdout);

    Setup setup(w.jobs.size());
    measureSetup(w.jobs, w.setupLanes, setup);

    // Timed passes: repeat while one more is expected to fit in
    // --seconds. Every pass runs the jobs in the same order, so passes
    // are alike whatever their number.
    const double start = steadyS();
    std::vector<Pass> passes;
    do {
        passes.push_back(runPass(w.jobs, w.lanes, false, nullptr, "pass"));
    } while (steadyS() - start + passes.back().wallS <= seconds);
    measureSetup(w.jobs, w.setupLanes, setup);
    const Pass &p0 = passes.front();

    Checks chk;
    unsigned attempted = 0;
    for (const Pass &p : passes)
        for (std::size_t i = 0; i < w.jobs.size(); ++i, ++attempted)
            chk.run(w.jobs[i], p.results[i]);
    // Simulated figures must repeat exactly at one seed: compare the
    // repetitions, or re-run the cheapest job when only one fitted.
    for (std::size_t k = 1; k < passes.size(); ++k)
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            chk.same(w.jobs[i], p0.results[i], passes[k].results[i],
                     "between repetitions");
    if (passes.size() == 1) {
        std::size_t cheapest = 0;
        for (std::size_t i = 1; i < w.jobs.size(); ++i)
            if (p0.results[i].runWallS < p0.results[cheapest].runWallS)
                cheapest = i;
        const JobResult again =
            runJob(w.jobs[cheapest], false, nullptr, 0, 0);
        ++attempted;
        chk.run(w.jobs[cheapest], again);
        chk.same(w.jobs[cheapest], p0.results[cheapest], again,
                 "between repetitions");
    }

    std::map<std::string, double> m;
    auto sum_of = [&](auto pick) {
        double s = 0.0;
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            s += pick(w.jobs[i], p0.results[i]);
        return s;
    };

    // --- End to end (untraced passes) ---
    {
        // Median over the passes, not the best: how many passes fit
        // depends on the host's speed, and a best-of would read lower
        // the more passes it had.
        std::vector<double> cpu, wall;
        for (const Pass &p : passes) {
            cpu.push_back(p.runCpuS());
            wall.push_back(p.wallS);
        }
        m["setup_s"] = Setup::sum(setup.total);
        m["run_cpu_s"] = median(cpu);
        m["wall_s"] = median(wall);
        std::vector<double> msa, sw;
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            const double kc = double(p0.results[i].makespan) / 1000.0;
            if (w.jobs[i].leg == "msa")
                msa.push_back(kc);
            else if (w.jobs[i].leg == "sw")
                sw.push_back(kc);
        }
        m["makespan_msa_kcyc"] = geomean(msa);
        m["makespan_sw_kcyc"] = geomean(sw);
    }

    // --- Workload-specific simulated figures ---
    m["fail_frac"] = sum_of([](const Job &, const JobResult &r) {
                         return r.failed() ? 1.0 : 0.0;
                     }) /
                     double(w.jobs.size());
    if (w.name == "fig6-64") {
        std::map<std::string, double> base;
        std::vector<double> speedups;
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            if (w.jobs[i].leg == "sw")
                base[w.jobs[i].app] = double(p0.results[i].makespan);
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            if (w.jobs[i].leg == "msa" && p0.results[i].makespan > 0)
                speedups.push_back(base[w.jobs[i].app] /
                                   double(p0.results[i].makespan));
        const double geo = geomean(speedups);
        m["fig6_gap_pct"] =
            std::fabs(geo - paperFig6Speedup) / paperFig6Speedup * 100.0;
        std::printf("fig6-64: geomean MSA/OMU-2 speed-up over the pthread "
                    "baseline %.4fx (paper %.2fx)\n",
                    geo, paperFig6Speedup);
    }
    if (w.name == "server-16") {
        double maxRate[2] = {0.0, 0.0};
        double shed = 0.0, generated = 0.0;
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            const Job &j = w.jobs[i];
            const srv::ServerStats &v = p0.results[i].server;
            const double lost = double(v.rejected + v.rejectedSlo +
                                       v.stranded);
            shed += lost;
            generated += double(v.generated);
            const bool meets = v.latency.p99() <= serverSlo &&
                               lost <= 0.01 * double(v.generated);
            double &best = maxRate[j.leg == "sw"];
            if (meets)
                best = std::max(best, j.rate);
            if (j.leg == "msa" && j.rate == 1.5) {
                m["srv_p50_ticks"] = double(v.latency.p50());
                m["srv_p99_ticks"] = double(v.latency.p99());
            }
            if (j.leg == "msa" && j.rate == 3.0)
                m["srv_goodput"] = v.goodput;
        }
        m["srv_max_rate"] = maxRate[0];
        m["srv_sw_max_rate"] = maxRate[1];
        m["fail_frac"] = generated > 0 ? shed / generated : 0.0;
    }
    // Bounded form of fail_frac, which reads 0 on fault-free workloads.
    m["done_frac"] = 1.0 - m["fail_frac"];
    if (w.name == "faults-16") {
        std::map<std::pair<std::string, std::uint64_t>, double> clean;
        std::vector<double> slow;
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            if (w.jobs[i].leg == "msa")
                clean[{w.jobs[i].app, w.jobs[i].seed}] =
                    double(p0.results[i].makespan);
        // A failed run's makespan means nothing; fail_frac counts it.
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            if (w.jobs[i].faulted() && !p0.results[i].failed())
                slow.push_back(double(p0.results[i].makespan) /
                               clean[{w.jobs[i].app, w.jobs[i].seed}]);
        m["fault_slowdown"] = geomean(slow);
    }

    // --- Layer counts (first untraced pass, summed over its runs) ---
    for (const MetricDef &d : perLayer)
        m.try_emplace(d.name, 0.0);
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        for (const auto &[k, v] : p0.results[i].sim)
            if (k.find('.') != std::string::npos && m.count(k))
                m[k] += v;
    const double kcyc = sum_of([](const Job &, const JobResult &r) {
                            return double(r.makespan);
                        }) /
                        1000.0;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["mem.l1_miss_rate"] =
        ratio(m["mem.l1_misses"], m["mem.l1_hits"] + m["mem.l1_misses"]);
    m["mem.llc_txn_per_kcyc"] = ratio(m["mem.llc_transactions"], kcyc);
    m["noc.packets_per_kcyc"] = ratio(m["noc.packets"], kcyc);
    m["noc.packet_latency_cyc"] =
        ratio(sum_of([](const Job &, const JobResult &r) {
                  return r.sim.at("noc.latency_sum");
              }),
              sum_of([](const Job &, const JobResult &r) {
                  return r.sim.at("noc.latency_count");
              }));
    m["msa.evictions_per_alloc"] =
        ratio(m["msa.evictions"], m["msa.allocations"]);
    {
        // Fig 7 style: mean per-run coverage over the hardware runs.
        std::vector<double> cov;
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            const auto &s = p0.results[i].sim;
            const double hw = s.at("sync.hw_ops"), sw = s.at("sync.sw_ops");
            if (w.jobs[i].leg != "sw" && hw + sw > 0)
                cov.push_back(hw / (hw + sw));
        }
        double sum = 0.0;
        for (double c : cov)
            sum += c;
        m["sync.hw_coverage_pct"] = cov.empty() ? 0.0
                                                : 100.0 * sum / cov.size();
    }
    m["srv.achieved_rate"] = ratio(m["srv.completed"], kcyc);
    m["srv.goodput"] = ratio(sum_of([](const Job &, const JobResult &r) {
                                 return double(r.server.sloMet);
                             }),
                             kcyc);
    m["system.build_s"] = Setup::sum(setup.system);
    m["workload.build_s"] = Setup::sum(setup.workload);

    // Kernel figures from the serial runs: the first pass, or for
    // pdes-x4 the traced pass's --threads 1 pairs (below).
    auto kernelFigures = [&](const std::vector<Job> &jobs, const Pass &p) {
        double events = 0, ticks = 0, cpu = 0, chunks = 0, heap = 0, pend = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].threads != 1)
                continue;
            const JobResult &r = p.results[i];
            events += double(r.events);
            ticks += double(r.ticks);
            cpu += r.runCpuS;
            chunks += double(r.pool.chunkAllocs);
            heap += double(r.pool.heapCallbacks);
            pend = std::max(pend, double(r.pool.maxPending));
        }
        m["sim.events"] = events;
        m["sim.events_per_tick"] = ratio(events, ticks);
        m["sim.ns_per_event"] = ratio(cpu * 1e9, events);
        m["sim.kticks_per_cpu_s"] = ratio(ticks / 1000.0, cpu);
        m["sim.pool_chunk_allocs"] = chunks;
        m["sim.heap_callbacks"] = heap;
        m["sim.max_pending"] = pend;
    };
    kernelFigures(w.jobs, p0);

    // --- Traced pass ---
    const double traceOrigin = steadyS();
    SpanRecorder rec;
    if (trace) {
        std::vector<Job> tjobs;
        std::vector<std::size_t> untracedIndex; // into w.jobs
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            if (w.jobs[i].threads > 1) {
                Job serial = w.jobs[i];
                serial.threads = 1;
                tjobs.push_back(serial);
                untracedIndex.push_back(SIZE_MAX);
            }
            tjobs.push_back(w.jobs[i]);
            untracedIndex.push_back(i);
        }
        const Pass tp = runPass(tjobs, w.lanes, true, &rec, "traced pass");
        attempted += tjobs.size();
        double tracedCost = 0.0, plainCost = 0.0;
        obs::LogHistogram wait;
        double speedupSerial = 0.0, speedupPar = 0.0, parCpu = 0.0;
        for (std::size_t t = 0; t < tjobs.size(); ++t) {
            const JobResult &r = tp.results[t];
            chk.run(tjobs[t], r);
            wait.merge(r.syncWait);
            m["obs.overflow_events"] += double(r.overflowEvents);
            m["obs.omu_episodes"] += double(r.omuEpisodes);
            m["obs.max_slice_occupancy"] =
                std::max(m["obs.max_slice_occupancy"], r.maxSliceOccupancy);
            m["obs.max_ni_queue_depth"] =
                std::max(m["obs.max_ni_queue_depth"], r.maxNiQueueDepth);
            const std::size_t u = untracedIndex[t];
            if (u == SIZE_MAX) {
                // The --threads 1 twin of the next (PDES) job: same
                // trajectory, so the same simulated results.
                chk.same(tjobs[t], r, tp.results[t + 1],
                         "between --threads 1 and --threads 4");
                speedupSerial += r.runWallS;
                speedupPar += tp.results[t + 1].runWallS;
                parCpu += tp.results[t + 1].runCpuS;
                continue;
            }
            chk.same(tjobs[t], p0.results[u], r,
                     "between the untraced and traced passes");
            // PDES runs are judged on wall time, serial runs on CPU.
            const bool par = tjobs[t].threads > 1;
            tracedCost += par ? r.runWallS : r.runCpuS;
            plainCost +=
                par ? p0.results[u].runWallS : p0.results[u].runCpuS;
        }
        m["obs.sync_wait_p50_cyc"] = double(wait.p50());
        m["obs.sync_wait_p99_cyc"] = double(wait.p99());
        m["obs.overhead_pct"] = 100.0 * (ratio(tracedCost, plainCost) - 1.0);
        if (speedupPar > 0) {
            m["sim.par.wall_speedup"] = speedupSerial / speedupPar;
            m["sim.par.cpu_per_wall"] = parCpu / speedupPar;
            kernelFigures(tjobs, tp);
        }
        // Every layer call must have left a span.
        const std::vector<std::string> names = rec.names();
        for (const char *want :
             {"system.build", "system.runDetailed", "traced pass"}) {
            if (std::find(names.begin(), names.end(), want) == names.end())
                chk.fail(std::string("no span named ") + want);
        }
        if (traceOut.empty())
            traceOut = "perfbench-" + w.name + ".trace.json";
        std::ofstream f(traceOut);
        if (f)
            rec.writeChromeTrace(f, "perfbench " + w.name, traceOrigin);
        if (!f)
            chk.fail("cannot write trace " + traceOut);
        else
            std::printf("trace: %zu spans written to %s\n", rec.size(),
                        traceOut.c_str());
    }

    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;

    // --- Report ---
    std::printf("%zu timed pass(es), %u set-up repetitions; %u simulated "
                "runs attempted, %u failed, %u failed check(s)\n",
                passes.size(), setup.reps, attempted, chk.failedRuns,
                chk.failedChecks);
    for (const Pass &p : passes)
        std::printf("  pass: run cpu %.3f s, wall %.3f s\n", p.runCpuS(),
                    p.wallS);
    auto table = [&](const char *title, const auto &defs) {
        std::printf("%-28s %18s  %s\n", title, "value", "unit");
        for (const MetricDef &d : defs)
            std::printf("%-28s %18.6f  %s\n", d.name, m.at(d.name), d.unit);
    };
    table("end-to-end metric", endToEnd);
    table(trace ? "per-layer metric"
                : "per-layer metric (obs.*, sim.par.*: --trace 1)",
          perLayer);

    const bool correct = chk.failedChecks == 0;
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, chk.failedRuns);
    auto json = [&](const auto &defs) {
        const char *sep = "";
        for (const MetricDef &d : defs) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        sep, d.name, m.at(d.name), d.unit);
            sep = ", ";
        }
    };
    if (trace)
        json(perLayer);
    else
        json(endToEnd);
    std::printf("}}\n");
    return correct ? 0 : 1;
}
