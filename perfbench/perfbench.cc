/**
 * @file
 * The repository benchmark: three pinned workloads, timed from
 * outside the library's public calls, every output checked.
 *
 *   perfbench --workload paper-sweep|stream-ingest|serve-warm
 *             --seed N --seconds S --trace 0|1 [--out DIR] [--rev REV]
 *
 * paper-sweep    the paper's six JW UCCSD molecules on ibmIthaca65,
 *                Tetris+O3 then Paulihedral+O3, one engine thread, no
 *                compile cache; every result verified after its pass.
 * stream-ingest  three seeded ~200k-instruction files (Shor Pauli list,
 *                Grover QASM, Trotter chemistry Pauli list) streamed
 *                through StreamCompiler on a 5x5 grid, window 256,
 *                engine verify on, .tcs written and read back.
 * serve-warm     an in-process ServeServer on loopback TCP with a
 *                seeded pool of synthetic UCC programs (8..16 qubits,
 *                line devices) compiled and verified in setup; the
 *                timed phase is a closed loop of 2 client connections
 *                whose every request is a memory-cache hit, run in
 *                half-second windows with the clients parked between.
 *
 * Every workload is set up several times (setup_s is the median) and
 * then measured in repetitions for `--seconds` of wall time. Timings
 * with a bound are process CPU seconds adjusted by a reference loop
 * run around each timed unit (see adjustedSeconds). The last stdout
 * line is the result object: end-to-end metrics when untraced,
 * per-layer metrics when traced. The traced run records its spans in
 * a private Tracer and writes them (Chrome trace-event JSON) next to
 * a full record of both metric sets under --out.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unistd.h>
#include <utility>
#include <vector>

#include "baselines/paulihedral.hh"
#include "chem/uccsd.hh"
#include "circuit/peephole.hh"
#include "common/json.hh"
#include "core/compiler.hh"
#include "core/pipeline_adapters.hh"
#include "core/tetris_ir.hh"
#include "engine/engine.hh"
#include "engine/trace.hh"
#include "frontend/stream_compiler.hh"
#include "frontend/workloads.hh"
#include "hardware/topologies.hh"
#include "serialize/artifact.hh"
#include "serialize/stream_file.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/server.hh"
#include "verify/verify.hh"

extern char **environ;

namespace fs = std::filesystem;

using namespace tetris;

namespace
{

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

double
msBetween(uint64_t start_ns, uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) / 1e6;
}

/** Median; the mean of the two middle values for even sizes. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** splitmix64 of (seed, index): independent per-item seeds. */
uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** CPU time of the whole process (every thread, user + system). */
uint64_t
cpuNowNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

/** CPU time of the calling thread. */
uint64_t
threadCpuNowNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

/** One interval on the wall clock and the process CPU clock. */
struct Interval
{
    uint64_t wall0 = steadyNowNs();
    uint64_t cpu0 = cpuNowNs();

    double wallS() const { return msBetween(wall0, steadyNowNs()) / 1e3; }
    double cpuS() const { return msBetween(cpu0, cpuNowNs()) / 1e3; }
};

double
peakRssMb()
{
    return static_cast<double>(frontend::peakRssKb()) / 1024.0;
}

struct Config
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string outDir = ".bench_out";
    std::string rev = "unknown";
};

/**
 * Ordered (name, value, unit) list; set() overwrites, so a workload
 * fills in the per-layer metrics it measures over zero defaults.
 */
class MetricSet
{
  public:
    bool has(const std::string &name) const { return find(name) >= 0; }

    /** Declare a metric, or overwrite its value and unit. */
    void set(const std::string &name, double value, const char *unit)
    {
        const int at = find(name);
        if (at < 0)
            items_.push_back({name, value, unit});
        else
            items_[at] = {name, value, unit};
    }

    /** Overwrite the value of a declared metric. */
    void set(const std::string &name, double value)
    {
        const int at = find(name);
        if (at < 0) {
            std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                         name.c_str());
            std::abort();
        }
        items_[at].value = value;
    }

    void write(JsonWriter &w) const
    {
        w.beginObject();
        for (const auto &m : items_) {
            w.key(m.name).beginObject();
            w.key("value").value(m.value);
            w.key("unit").value(m.unit);
            w.endObject();
        }
        w.endObject();
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };

    int find(const std::string &name) const
    {
        for (size_t i = 0; i < items_.size(); ++i) {
            if (items_[i].name == name)
                return static_cast<int>(i);
        }
        return -1;
    }

    std::vector<Item> items_;
};

/**
 * Every per-layer metric, zero until a workload measures it: a layer
 * that does no work in a workload reads 0 there.
 */
MetricSet
perLayerDefaults()
{
    static const std::pair<const char *, const char *> kAll[] = {
        {"core.tetris_pass_ms", "ms"},
        {"core.ir_build_ms", "ms"},
        {"core.reorder_ms", "ms"},
        {"core.schedule_ms", "ms"},
        {"core.synth_ms", "ms"},
        {"core.blocks", "count"},
        {"core.strings", "count"},
        {"core.swaps", "count"},
        {"core.cancel_ratio", "ratio"},
        {"baselines.paulihedral_pass_ms", "ms"},
        {"circuit.peephole.tetris_ms", "ms"},
        {"circuit.peephole.paulihedral_ms", "ms"},
        {"circuit.peephole.gates_in", "count"},
        {"circuit.peephole.gates_removed", "count"},
        {"frontend.parse_ms", "ms"},
        {"frontend.parse_instr_per_s", "1/s"},
        {"frontend.bytes", "bytes"},
        {"verify.ms", "ms"},
        {"verify.pass", "count"},
        {"verify.fail", "count"},
        {"serialize.encode_ms", "ms"},
        {"serialize.decode_ms", "ms"},
        {"serialize.artifact_bytes", "bytes"},
        {"serialize.tcs_read_ms", "ms"},
        {"serve.rtt_p50_ms", "ms"},
        {"serve.rtt_p99_ms", "ms"},
        {"serve.rtt_cpu_ratio", "ratio"},
        {"serve.requests", "count"},
        {"serve.req_per_s", "1/s"},
        {"serve.ping_ms", "ms"},
        {"serve.encode_submit_ms", "ms"},
        {"serve.decode_submit_ms", "ms"},
        {"serve.encode_result_ms", "ms"},
        {"serve.frame_checksum_ms", "ms"},
        {"serve.decode_result_ms", "ms"},
        {"serve.request_bytes", "bytes"},
        {"serve.response_bytes", "bytes"},
        {"serve.unaccounted_ms", "ms"},
        {"engine.hit_ms", "ms"},
        {"engine.cache_hits", "count"},
        {"engine.cache_misses", "count"},
        {"engine.hit_ratio", "ratio"},
        {"engine.lock_wait_ms", "ms"},
        {"host.ref_ms", "ms"},
        {"bench.pass_cpu_s", "s"},
        {"bench.pass_wall_s", "s"},
        {"bench.setup_cpu_s", "s"},
    };
    MetricSet set;
    for (const auto &[name, unit] : kAll)
        set.set(name, 0.0, unit);
    return set;
}

/** What one run measured and checked. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    MetricSet endToEnd;
    MetricSet perLayer = perLayerDefaults();
    /** Raw repetition samples behind the medians, for the record. */
    std::map<std::string, std::vector<double>> samples;

    /** Count one operation; a failed one keeps its diagnostic. */
    void op(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
};

/**
 * The benchmark's one instrumentation point. Times a call into the
 * library, records it as a span in the private tracer (a no-op while
 * the tracer is disabled), and adds the milliseconds to the current
 * repetition under its metric name. endRep() closes a repetition; a
 * per-layer value is the median over repetitions.
 */
class Probe
{
  public:
    explicit Probe(Tracer &tracer) : tracer_(tracer) {}

    template <class F>
    decltype(auto) operator()(const char *span, const char *layer, F &&fn)
    {
        const uint64_t t0 = steadyNowNs();
        if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
            fn();
            close(span, layer, t0);
        } else {
            decltype(auto) out = fn();
            close(span, layer, t0);
            return out;
        }
    }

    /** Record a span whose bounds are already known. */
    void span(const char *name, const char *layer, uint64_t start_ns,
              uint64_t end_ns)
    {
        tracer_.recordSpan(name, layer, start_ns, end_ns);
    }

    /** Accumulate into the current repetition. */
    void add(const std::string &name, double value)
    {
        current_[name] += value;
    }

    void endRep()
    {
        for (auto &[name, value] : current_)
            reps_[name].push_back(value);
        current_.clear();
    }

    const std::map<std::string, std::vector<double>> &reps() const
    {
        return reps_;
    }

    double medianOf(const std::string &name) const
    {
        auto it = reps_.find(name);
        return it == reps_.end() ? 0.0 : median(it->second);
    }

  private:
    void close(const char *span, const char *layer, uint64_t t0)
    {
        const uint64_t t1 = steadyNowNs();
        tracer_.recordSpan(span, layer, t0, t1);
        // "layer.stage" accumulates as "layer.stage_ms", a bare
        // layer name ("verify") as "verify.ms".
        current_[std::string(span) +
                 (std::strchr(span, '.') ? "_ms" : ".ms")] +=
            msBetween(t0, t1);
    }

    Tracer &tracer_;
    std::map<std::string, double> current_;
    std::map<std::string, std::vector<double>> reps_;
};

/**
 * host.ref_ms: a fixed, memory-heavy integer loop in the benchmark's
 * own code: sort a copy of a seeded 1 MiB array and count its values
 * in a hash table, the access pattern of compiler code. It runs
 * between units of work while the program is idle, never inside a
 * timed window. No program
 * change moves it: it records how fast the host was, on the CPU
 * clock like the timings it adjusts (see adjustedSeconds).
 */
class HostRef
{
  public:
    explicit HostRef(Tracer &tracer) : tracer_(tracer), base_(kValues)
    {
        std::mt19937 rng(0x7e7215);
        for (uint32_t &v : base_)
            v = rng();
    }

    /** Run the loop three times; the median CPU milliseconds. */
    double sample()
    {
        double ms[3];
        for (double &m : ms) {
            const uint64_t w0 = steadyNowNs();
            const uint64_t c0 = threadCpuNowNs();
            std::vector<uint32_t> v = base_;
            std::sort(v.begin(), v.end());
            std::unordered_map<uint32_t, uint32_t> counts;
            counts.reserve(kValues / 4);
            for (size_t i = 0; i < kValues / 4; ++i)
                ++counts[v[4 * i] ^ v[i]];
            sink_ += counts.size() + v[kValues / 2];
            m = msBetween(c0, threadCpuNowNs());
            tracer_.recordSpan("host.ref", "host", w0, steadyNowNs());
            runs_.push_back(m);
        }
        std::sort(std::begin(ms), std::end(ms));
        return ms[1];
    }

    const std::vector<double> &runs() const { return runs_; }

  private:
    static constexpr size_t kValues = 1u << 18;
    Tracer &tracer_;
    std::vector<uint32_t> base_;
    uint64_t sink_ = 0;
    std::vector<double> runs_;
};

/** host.ref_ms on the nominal host the adjusted timings refer to. */
constexpr double kNominalRefMs = 25.0;

/**
 * CPU seconds measured while the reference loop took `ref_ms`, scaled
 * to the nominal host. On a shared virtual host the same binary's CPU
 * time per pass moves by half between phases of co-tenant load, and
 * the reference loop moves with it; the ratio stays put. The wall
 * clock moves more still, since it also counts hypervisor steal.
 */
double
adjustedSeconds(double cpu_s, double ref_ms)
{
    return cpu_s * kNominalRefMs / ref_ms;
}

/**
 * Times passes on both clocks. A pass is one or more segments, each
 * bracketed by reference samples taken just before and just after it
 * and adjusted against their mean; the pass's time is the sum of its
 * segments'. Splitting a long pass tracks the host more closely.
 */
class PassTimer
{
  public:
    explicit PassTimer(HostRef &host) : host_(host) {}

    void start()
    {
        cpu_s_ = wall_s_ = adjusted_s_ = 0.0;
        ref_ms_ = host_.sample();
        segment_ = Interval{};
    }

    /** Split once the current segment has run for half a second. */
    void splitIfLong()
    {
        if (segment_.wallS() >= 0.5)
            split();
    }

    /** Close the current segment and open the next. */
    void split()
    {
        const double cpu_s = segment_.cpuS();
        const double wall_s = segment_.wallS();
        const double ref_ms = host_.sample();
        cpu_s_ += cpu_s;
        wall_s_ += wall_s;
        adjusted_s_ += adjustedSeconds(cpu_s, 0.5 * (ref_ms_ + ref_ms));
        ref_ms_ = ref_ms;
        segment_ = Interval{};
    }

    void finish()
    {
        split();
        add(cpu_s_, wall_s_, adjusted_s_);
    }

    /** Add a pass measured elsewhere. */
    void add(double cpu_s, double wall_s, double adjusted_s)
    {
        cpu_.push_back(cpu_s);
        wall_.push_back(wall_s);
        adjusted_.push_back(adjusted_s);
    }

    /** pass_s and its raw clocks, medians over passes. */
    void report(Outcome &out) const
    {
        out.endToEnd.set("pass_s", median(adjusted_), "s");
        out.perLayer.set("bench.pass_cpu_s", median(cpu_));
        out.perLayer.set("bench.pass_wall_s", median(wall_));
        out.samples["pass_s"] = adjusted_;
        out.samples["pass_cpu_s"] = cpu_;
        out.samples["pass_wall_s"] = wall_;
    }

  private:
    HostRef &host_;
    Interval segment_;
    double ref_ms_ = 0.0;
    double cpu_s_ = 0.0, wall_s_ = 0.0, adjusted_s_ = 0.0;
    std::vector<double> cpu_, wall_, adjusted_;
};

/**
 * Each per-layer metric the probe measured is its median over
 * repetitions; the raw values go to the run's record.
 */
void
finishSamples(Outcome &out, const Probe &probe)
{
    for (const auto &[name, values] : probe.reps()) {
        out.samples[name] = values;
        if (out.perLayer.has(name))
            out.perLayer.set(name, median(values));
    }
}

/**
 * The pinned engine configuration: one worker thread, one cache
 * shard, no disk tier. Knobs left at 0 or empty would fall back to
 * TETRIS_* variables, which main() refuses.
 */
EngineOptions
pinnedEngine(Tracer &tracer, bool cache, bool verify)
{
    EngineOptions o;
    o.numThreads = 1;
    o.enableCache = cache;
    o.cacheShards = 1;
    o.diskCache = nullptr;
    o.verify = verify;
    o.tracer = &tracer;
    return o;
}

/** Stop an unbounded repetition loop at the deadline. */
struct Deadline
{
    uint64_t endNs;
    size_t minReps;
    bool more(size_t reps) const
    {
        return reps < minReps || steadyNowNs() < endNs;
    }
};

Deadline
deadlineFor(const Config &cfg, size_t min_reps)
{
    return {steadyNowNs() + static_cast<uint64_t>(cfg.seconds * 1e9),
            min_reps};
}

/** The exact quality metrics of one repetition. */
struct Quality
{
    double cnot = 0;
    double depth = 0;
    double durationDt = 0;
    bool operator==(const Quality &) const = default;
};

void
setQuality(Outcome &out, const Quality &q)
{
    out.endToEnd.set("cnot_total", q.cnot, "count");
    out.endToEnd.set("depth_total", q.depth, "count");
    out.endToEnd.set("duration_dt_total", q.durationDt, "dt");
}

/**
 * setup_s: the median over setup repetitions of their adjusted CPU
 * seconds, each against the reference samples on either side of it.
 * The first repetition is timed from the start of main. The state the
 * last of first()'s repetitions builds is kept; again() builds one
 * more and drops it. Calling again() between passes spreads the
 * repetitions over the run, so their median averages the host's
 * phases as pass_s does, not just the seconds before the first pass.
 */
class SetupTimer
{
  public:
    SetupTimer(Outcome &out, HostRef &host) : out_(out), host_(host) {}

    template <class Build>
    auto first(const Interval &from_main, int reps, Build &&build)
    {
        auto state = build();
        record(from_main, 0.0);
        for (int r = 1; r < reps; ++r) {
            state.reset();
            const double before = before_;
            const Interval t;
            state = build();
            record(t, before);
        }
        return state;
    }

    template <class Build> void again(Build &&build)
    {
        const double before = host_.sample();
        const Interval t;
        auto state = build();
        record(t, before);
    }

  private:
    /** One repetition that ran from `t`; `before` is 0 when no
     *  reference sample precedes it. */
    void record(const Interval &t, double before)
    {
        cpu_.push_back(t.cpuS());
        out_.samples["setup_wall_s"].push_back(t.wallS());
        before_ = host_.sample();
        adjusted_.push_back(adjustedSeconds(
            cpu_.back(), before > 0 ? 0.5 * (before + before_) : before_));
        out_.endToEnd.set("setup_s", median(adjusted_), "s");
        out_.perLayer.set("bench.setup_cpu_s", median(cpu_));
        out_.samples["setup_s"] = adjusted_;
        out_.samples["setup_cpu_s"] = cpu_;
    }

    Outcome &out_;
    HostRef &host_;
    double before_ = 0.0;
    std::vector<double> adjusted_, cpu_;
};

/**
 * The high-water RSS after a fixed amount of work (the first pass, or
 * the serve setup): later passes may fragment the heap further, and
 * how many fit in the run depends on host speed.
 */
void
setPeakRss(Outcome &out)
{
    out.endToEnd.set("peak_rss_mb", peakRssMb(), "MB");
}

// ---- paper-sweep -----------------------------------------------------

struct PaperState
{
    std::vector<std::string> names;
    std::vector<std::vector<PauliBlock>> programs;
    std::shared_ptr<const CouplingGraph> hw;
    std::unique_ptr<Engine> engine;
    PipelinePtr tetris;
    PipelinePtr paulihedral;
};

void
runPaperSweep(const Config &cfg, HostRef &host, const Interval &from_main,
              Tracer &tracer, Outcome &out)
{
    auto build = [&] {
        auto s = std::make_unique<PaperState>();
        for (const MoleculeSpec &spec : moleculeBenchmarks()) {
            s->names.push_back(spec.name);
            s->programs.push_back(buildMolecule(spec, "jw"));
        }
        s->hw = std::make_shared<const CouplingGraph>(ibmIthaca65());
        s->engine = std::make_unique<Engine>(pinnedEngine(
            tracer, false, false));
        s->tetris = makeTetrisPipeline();
        s->paulihedral = makePaulihedralPipeline();
        return s;
    };
    SetupTimer setup(out, host);
    auto st = setup.first(from_main, 3, build);

    Probe probe(tracer);
    PassTimer timer(host);
    const size_t n = st->programs.size();
    std::vector<Quality> first(2 * n);
    Quality quality;

    Deadline until = deadlineFor(cfg, 3);
    for (size_t rep = 0; until.more(rep); ++rep) {
        // Job j < n is Tetris on molecule j, job n + j Paulihedral.
        std::vector<CompileJob> jobs(2 * n);
        for (size_t j = 0; j < 2 * n; ++j) {
            const PipelinePtr &pipe = j < n ? st->tetris : st->paulihedral;
            jobs[j].name = st->names[j % n] + "/" + pipe->name();
            jobs[j].blocks = st->programs[j % n];
            jobs[j].hw = st->hw;
            jobs[j].pipeline = pipe;
        }

        // The timed pass: both pipelines over every molecule.
        // Scoped submissions leave no per-job record in the engine, so
        // memory does not grow with the number of passes.
        std::vector<std::shared_ptr<const CompileResult>> results(2 * n);
        double pipeline_ms[2] = {0, 0};
        timer.start();
        const uint64_t pass0 = steadyNowNs();
        for (size_t half = 0; half < 2; ++half) {
            for (size_t j = half * n; j < (half + 1) * n; ++j) {
                const uint64_t t0 = steadyNowNs();
                results[j] =
                    st->engine->submitScoped(std::move(jobs[j]))->get();
                const uint64_t t1 = steadyNowNs();
                probe.span(half == 0 ? "core.tetris_o3"
                                     : "baselines.paulihedral_o3",
                           "wait", t0, t1);
                pipeline_ms[half] += msBetween(t0, t1);
                if (j + 1 < 2 * n)
                    timer.splitIfLong();
            }
        }
        probe.span("bench.pass", "bench", pass0, steadyNowNs());
        timer.finish();
        probe.add("core.tetris_pass_ms", pipeline_ms[0]);
        probe.add("baselines.paulihedral_pass_ms", pipeline_ms[1]);

        // Untimed: verify every job and hold its counts fixed.
        Quality pass_q;
        double cancel_orig = 0, cancel_logical = 0;
        for (size_t j = 0; j < 2 * n; ++j) {
            const size_t i = j % n;
            const CompileResult &r = *results[j];
            VerifyReport vr = probe("verify", "verify", [&] {
                return verifyCompileResult(st->programs[i], r);
            });
            probe.add("verify.pass", vr.pass() ? 1 : 0);
            probe.add("verify.fail", vr.failed() ? 1 : 0);
            Quality q{static_cast<double>(r.stats.cnotCount),
                      static_cast<double>(r.stats.depth),
                      r.stats.durationDt};
            if (rep == 0)
                first[j] = q;
            const std::string job =
                st->names[i] + (j < n ? "/tetris" : "/paulihedral");
            out.op(vr.pass() && !r.cancelled && q == first[j],
                   job + ": " + (vr.pass() ? "counts differ from pass 0"
                                           : vr.detail));
            pass_q.cnot += q.cnot;
            pass_q.depth += q.depth;
            pass_q.durationDt += q.durationDt;
            if (j < n) {
                probe.add("core.schedule_ms",
                          r.stats.scheduleSeconds * 1e3);
                probe.add("core.synth_ms", r.stats.synthSeconds * 1e3);
                probe.add("core.blocks",
                          static_cast<double>(st->programs[i].size()));
                probe.add("core.strings", static_cast<double>(
                                              totalStrings(st->programs[i])));
                probe.add("core.swaps",
                          static_cast<double>(r.stats.swapCount));
                cancel_orig += static_cast<double>(r.stats.originalCnots);
                cancel_logical +=
                    static_cast<double>(r.stats.logicalCnots);
            }
        }
        probe.add("core.cancel_ratio",
                  cancel_orig > 0
                      ? (cancel_orig - cancel_logical) / cancel_orig
                      : 0.0);
        quality = pass_q;

        if (cfg.trace) {
            // Layer probes outside the timed pass: the IR builder and
            // string reorder called directly, and the peephole pass on
            // each pipeline's no-O3 circuit.
            TetrisOptions no_o3;
            no_o3.runPeephole = false;
            PaulihedralOptions ph_no_o3;
            ph_no_o3.runPeephole = false;
            for (size_t i = 0; i < n; ++i) {
                const auto &blocks = st->programs[i];
                probe("core.ir_build", "core",
                      [&] { return buildTetrisIr(blocks).size(); });
                probe("core.reorder", "core", [&] {
                    size_t strings = 0;
                    for (const PauliBlock &b : blocks)
                        strings += reorderForConsecutiveSimilarity(b).size();
                    return strings;
                });
                const CompileResult raw[2] = {
                    compileTetris(blocks, *st->hw, no_o3),
                    compilePaulihedral(blocks, *st->hw, ph_no_o3)};
                const char *spans[2] = {"circuit.peephole.tetris",
                                        "circuit.peephole.paulihedral"};
                for (int k = 0; k < 2; ++k) {
                    Circuit opt = probe(spans[k], "circuit", [&] {
                        return peepholeOptimize(raw[k].circuit);
                    });
                    probe.add("circuit.peephole.gates_in",
                              static_cast<double>(raw[k].circuit.size()));
                    probe.add("circuit.peephole.gates_removed",
                              static_cast<double>(raw[k].circuit.size() -
                                                  opt.size()));
                }
            }
        }
        probe.endRep();
        if (rep == 0)
            setPeakRss(out);
        setup.again(build);
    }

    timer.report(out);
    finishSamples(out, probe);
    setQuality(out, quality);
}

// ---- stream-ingest ---------------------------------------------------

struct StreamInput
{
    const char *name;
    const char *file;
    int qubits;
    uint64_t (*generate)(std::ostream &, const frontend::WorkloadSpec &);
};

const StreamInput kStreamInputs[] = {
    {"shor-modexp", "shor.pauli", 20, frontend::genShorModExp},
    {"grover-3sat", "grover.qasm", 16, frontend::genGrover3Sat},
    {"trotter-chem", "chem.pauli", 12, frontend::genTrotterChem},
};

struct StreamState
{
    fs::path dir;
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    std::shared_ptr<const CouplingGraph> hw;
    std::unique_ptr<Engine> engine;
};

void
runStreamIngest(const Config &cfg, HostRef &host, const Interval &from_main,
                Tracer &tracer, Outcome &out)
{
    constexpr int kWindow = 256;
    constexpr uint64_t kInstructions = 200000;

    auto build = [&] {
        auto s = std::make_unique<StreamState>();
        s->dir = fs::path(cfg.outDir) /
                 ("stream-" + std::to_string(cfg.seed));
        fs::create_directories(s->dir);
        for (size_t i = 0; i < std::size(kStreamInputs); ++i) {
            const StreamInput &in = kStreamInputs[i];
            frontend::WorkloadSpec spec;
            spec.numQubits = in.qubits;
            spec.minInstructions = kInstructions;
            spec.seed = mixSeed(cfg.seed, i);
            fs::path path = s->dir / in.file;
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            in.generate(os, spec);
            s->inputs.push_back(path.string());
            s->outputs.push_back(
                (s->dir / (std::string(in.name) + ".tcs")).string());
        }
        s->hw = std::make_shared<const CouplingGraph>(gridTopology(5, 5));
        s->engine = std::make_unique<Engine>(
            pinnedEngine(tracer, false, true));
        return s;
    };
    SetupTimer setup(out, host);
    auto st = setup.first(from_main, 3, build);

    Probe probe(tracer);
    PassTimer timer(host);
    Quality first, quality;
    Engine &engine = *st->engine;

    Deadline until = deadlineFor(cfg, 3);
    for (size_t rep = 0; until.more(rep); ++rep) {
        const double verify_s0 = engine.metrics().seconds("verify.seconds");
        const uint64_t pass0_fail = engine.metrics().count("verify.fail");
        const uint64_t pass0_ok = engine.metrics().count("verify.pass");
        std::vector<frontend::StreamStats> stats;
        // Engine verify Passes per file: the gate needs one per chunk.
        std::vector<uint64_t> verified;

        // The timed pass: every file to a verified .tcs, one segment
        // per file.
        timer.start();
        const uint64_t pass0 = steadyNowNs();
        for (size_t i = 0; i < st->inputs.size(); ++i) {
            if (i > 0)
                timer.split();
            const uint64_t t0 = steadyNowNs();
            std::ifstream is(st->inputs[i], std::ios::binary);
            auto src = frontend::makeBlockSource(
                is, frontend::SourceFormat::Auto, st->inputs[i]);
            frontend::StreamOptions so;
            so.window = kWindow;
            so.name = kStreamInputs[i].name;
            so.outputPath = st->outputs[i];
            frontend::StreamCompiler sc(engine, st->hw, so);
            const uint64_t passes0 = engine.metrics().count("verify.pass");
            stats.push_back(sc.run(*src));
            verified.push_back(engine.metrics().count("verify.pass") -
                               passes0);
            // Parsing runs on this thread inside run(); its total
            // is recorded as one span at the start of the file's.
            probe.span("frontend.parse_total", "frontend", t0,
                       t0 + static_cast<uint64_t>(
                                stats.back().parseSeconds * 1e9));
            probe.span("frontend.stream_file", "wait", t0,
                       steadyNowNs());
        }
        probe.span("bench.pass", "bench", pass0, steadyNowNs());
        timer.finish();

        probe.add("verify.ms",
                  (engine.metrics().seconds("verify.seconds") - verify_s0) *
                      1e3);
        probe.add("verify.pass", static_cast<double>(
                                     engine.metrics().count("verify.pass") -
                                     pass0_ok));
        probe.add("verify.fail", static_cast<double>(
                                     engine.metrics().count("verify.fail") -
                                     pass0_fail));

        // Untimed: read every .tcs back; its records must match the
        // stream's own accounting chunk for chunk.
        Quality pass_q;
        double cancel_orig = 0, cancel_logical = 0;
        for (size_t i = 0; i < stats.size(); ++i) {
            const frontend::StreamStats &ss = stats[i];
            const std::string name = kStreamInputs[i].name;
            if (!ss.ok) {
                out.op(false, name + ": " + ss.failure +
                                  (ss.parseError.ok()
                                       ? ""
                                       : " " + ss.parseError.toText()));
                continue;
            }
            std::vector<CompileResult> records;
            std::vector<uint64_t> keys;
            bool corrupt = false;
            probe("serialize.tcs_read", "serialize", [&] {
                using Read = serialize::StreamArtifactReader::Status;
                serialize::StreamArtifactReader reader(st->outputs[i]);
                uint64_t key = 0;
                CompileResult res;
                Read r;
                while ((r = reader.next(key, res)) == Read::Record) {
                    keys.push_back(key);
                    records.push_back(std::move(res));
                }
                corrupt = r == Read::Corrupt;
            });
            size_t gates = 0, cnots = 0;
            for (const CompileResult &r : records) {
                gates += r.stats.totalGateCount;
                cnots += r.stats.cnotCount;
            }
            const bool file_ok = !corrupt && records.size() == ss.chunks &&
                                 keys == ss.chunkKeys &&
                                 gates == ss.totalGates &&
                                 cnots == ss.cnotCount;
            if (!file_ok)
                out.op(false, name + ": .tcs does not match StreamStats");
            // One operation per chunk. Each must have passed engine
            // verify: a Fail, a Skip or a verify that never ran leaves
            // verify.pass short of the chunk count and fails the rest.
            for (size_t c = 0; c < ss.chunks; ++c)
                out.op(c < verified[i],
                       name + ": a chunk did not pass engine verify");
            if (verified[i] > ss.chunks)
                out.op(false, name + ": more verify passes than chunks");

            for (const CompileResult &r : records) {
                pass_q.cnot += static_cast<double>(r.stats.cnotCount);
                pass_q.depth += static_cast<double>(r.stats.depth);
                pass_q.durationDt += r.stats.durationDt;
                probe.add("core.schedule_ms", r.stats.scheduleSeconds * 1e3);
                probe.add("core.synth_ms", r.stats.synthSeconds * 1e3);
                probe.add("circuit.peephole.tetris_ms",
                          r.stats.peepholeSeconds * 1e3);
                probe.add("core.swaps", static_cast<double>(r.stats.swapCount));
                cancel_orig += static_cast<double>(r.stats.originalCnots);
                cancel_logical += static_cast<double>(r.stats.logicalCnots);
            }
            probe.add("core.blocks", static_cast<double>(ss.blocks));
            probe.add("frontend.bytes", static_cast<double>(ss.bytesRead));

            if (cfg.trace) {
                // Artifact codec on this stream's own records.
                for (size_t c = 0; c < records.size(); ++c) {
                    std::string img =
                        probe("serialize.encode", "serialize", [&] {
                            return serialize::encodeArtifact(keys[c],
                                                             records[c]);
                        });
                    probe.add("serialize.artifact_bytes",
                              static_cast<double>(img.size()));
                    CompileResult back;
                    bool ok = probe("serialize.decode", "serialize", [&] {
                        return serialize::decodeArtifact(img, keys[c],
                                                         back);
                    });
                    if (!ok)
                        out.op(false, name + ": artifact re-decode failed");
                }
            }
        }
        probe.add("core.cancel_ratio",
                  cancel_orig > 0
                      ? (cancel_orig - cancel_logical) / cancel_orig
                      : 0.0);
        if (rep == 0)
            first = pass_q;
        else if (!(pass_q == first))
            out.op(false, "exact counts differ from pass 0");
        quality = pass_q;

        if (cfg.trace) {
            // Drain-only frontend pass; the IR builder and string
            // reorder are timed on the same window-sized chunks.
            double instr = 0, parse_ms = 0;
            for (size_t i = 0; i < st->inputs.size(); ++i) {
                std::ifstream is(st->inputs[i], std::ios::binary);
                auto src = frontend::makeBlockSource(
                    is, frontend::SourceFormat::Auto, st->inputs[i]);
                using Status = frontend::BlockSource::Status;
                std::vector<PauliBlock> chunk;
                PauliBlock b;
                Status status = Status::Block;
                while (status == Status::Block) {
                    chunk.clear();
                    const uint64_t p0 = steadyNowNs();
                    while (chunk.size() < static_cast<size_t>(kWindow) &&
                           (status = src->next(b)) == Status::Block)
                        chunk.push_back(std::move(b));
                    const uint64_t p1 = steadyNowNs();
                    probe.span("frontend.parse", "frontend", p0, p1);
                    parse_ms += msBetween(p0, p1);
                    if (chunk.empty())
                        break;
                    probe("core.ir_build", "core",
                          [&] { return buildTetrisIr(chunk).size(); });
                    probe("core.reorder", "core", [&] {
                        size_t strings = 0;
                        for (const PauliBlock &blk : chunk)
                            strings +=
                                reorderForConsecutiveSimilarity(blk).size();
                        return strings;
                    });
                    probe.add("core.strings",
                              static_cast<double>(totalStrings(chunk)));
                }
                if (status == Status::Error)
                    out.op(false, std::string(kStreamInputs[i].name) +
                                      ": " + src->error().toText());
                instr += static_cast<double>(src->instructionsRead());
            }
            probe.add("frontend.parse_ms", parse_ms);
            probe.add("frontend.parse_instr_per_s",
                      parse_ms > 0 ? instr / (parse_ms / 1e3) : 0.0);
        }
        probe.endRep();
        if (rep == 0)
            setPeakRss(out);
        setup.again(build);
    }

    timer.report(out);
    finishSamples(out, probe);
    setQuality(out, quality);
    fs::remove_all(st->dir);
}

// ---- serve-warm ------------------------------------------------------

struct PoolProgram
{
    std::vector<PauliBlock> blocks;
    std::shared_ptr<const CouplingGraph> hw;
    serve::SubmitRequest request;
    uint64_t key = 0;
    /** The artifact verified in setup; every response must equal it. */
    std::string artifact;
};

struct ServeState
{
    std::vector<PoolProgram> pool;
    std::unique_ptr<Engine> engine;
    std::unique_ptr<serve::ServeServer> server;
};

/** One client-side round trip, as ServeClient::submit performs it. */
struct Exchange
{
    bool ok = false;
    std::string error;
    serve::ResultFrame frame;
    CompileResult result;
};

Exchange
roundTrip(int fd, const serve::SubmitRequest &req)
{
    Exchange x;
    if (!serve::sendFrame(fd, serve::FrameType::Submit,
                          serve::encodeSubmit(req))) {
        x.error = "send failed";
        return x;
    }
    serve::FrameType type = serve::FrameType::Error;
    std::string payload;
    auto rs =
        serve::recvFrame(fd, serve::kDefaultMaxFrameBytes, type, payload);
    if (rs != serve::RecvStatus::Ok) {
        x.error = serve::recvStatusName(rs);
        return x;
    }
    if (type != serve::FrameType::Result) {
        serve::ErrorFrame e;
        serve::decodeError(payload, e);
        x.error = "error frame: " + e.code + " " + e.detail;
        return x;
    }
    if (!serve::decodeResult(payload, x.frame) ||
        !serialize::decodeArtifact(x.frame.artifact, x.frame.jobKey,
                                   x.result)) {
        x.error = "undecodable result";
        return x;
    }
    x.ok = true;
    return x;
}

/**
 * Parks the serve-warm clients between measurement windows, so the
 * reference loop runs while the program is idle, as on the other
 * workloads. A client calls wait() before each request; close()
 * returns once every running client has finished its request in
 * flight and parked.
 */
class ClientGate
{
  public:
    explicit ClientGate(int clients) : running_(clients) {}

    /** False once the phase is over. `resumed` is set when the client
     *  was parked, so its next request starts on cold caches. */
    bool wait(bool &resumed)
    {
        std::unique_lock<std::mutex> lock(mu_);
        resumed = false;
        if (closed_ && !stopped_) {
            ++parked_;
            cv_.notify_all();
            cv_.wait(lock, [&] { return !closed_ || stopped_; });
            --parked_;
            resumed = true;
        }
        if (!stopped_)
            return true;
        --running_;
        cv_.notify_all();
        return false;
    }

    /** A client that gives up early. */
    void leave()
    {
        std::lock_guard<std::mutex> lock(mu_);
        --running_;
        cv_.notify_all();
    }

    void close()
    {
        std::unique_lock<std::mutex> lock(mu_);
        closed_ = true;
        cv_.wait(lock, [&] { return parked_ == running_; });
    }

    void open() { set(false, false); }
    void stop() { set(false, true); }

  private:
    void set(bool closed, bool stopped)
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = closed;
        stopped_ = stopped;
        cv_.notify_all();
    }

    std::mutex mu_;
    std::condition_variable cv_;
    int running_;
    int parked_ = 0;
    bool closed_ = true;
    bool stopped_ = false;
};

/** Check one response against the program's verified artifact. */
std::string
responseProblem(const Exchange &x, const PoolProgram &p)
{
    if (!x.ok)
        return x.error;
    if (x.frame.jobKey != p.key)
        return "job key mismatch";
    if (x.frame.verify != serve::WireVerify::Pass)
        return "engine verify did not pass";
    if (x.frame.artifact != p.artifact)
        return "artifact differs from the verified one";
    return {};
}

void
runServeWarm(const Config &cfg, HostRef &host, const Interval &from_main,
             Tracer &tracer, Outcome &out)
{
    constexpr int kClients = 2;
    // A round trip slower than this many times a request's CPU time
    // spent most of its time waiting, and fails the run.
    constexpr double kMaxRttCpuRatio = 6.0;
    Probe probe(tracer);

    SetupTimer setup(out, host);
    auto st = setup.first(from_main, 5, [&] {
        auto s = std::make_unique<ServeState>();
        s->engine = std::make_unique<Engine>(
            pinnedEngine(tracer, true, true));
        serve::ServeOptions so;
        so.tcpHost = "127.0.0.1";
        so.tcpPort = 0;
        so.maxClients = 8;
        so.maxQueueDepth = 256;
        so.maxFrameBytes = serve::kDefaultMaxFrameBytes;
        s->server = serve::ServeServer::start(*s->engine, so);
        if (s->server == nullptr)
            return s;
        // One program per width, 8..16 qubits.
        for (int q = 8; q <= 16; ++q) {
            PoolProgram p;
            p.blocks = buildSyntheticUcc(q, mixSeed(cfg.seed, q));
            p.hw = std::make_shared<const CouplingGraph>(lineTopology(q));
            p.request = serve::makeSubmitRequest(
                "ucc" + std::to_string(q), "tetris", p.blocks, *p.hw);
            s->pool.push_back(std::move(p));
        }
        // Warm the memory cache through the server, as a client would.
        std::string err;
        auto client = serve::ServeClient::connectTcp(s->server->port(), err);
        for (PoolProgram &p : s->pool) {
            Exchange x = client ? roundTrip(client->fd(), p.request)
                                : Exchange{};
            if (x.ok) {
                p.key = x.frame.jobKey;
                p.artifact = x.frame.artifact;
            }
        }
        return s;
    });

    if (st->server == nullptr) {
        out.op(false, "cannot start the server on loopback TCP");
        return;
    }

    // Setup check: every pool program verified once, independently of
    // the engine's own verify pass.
    for (PoolProgram &p : st->pool) {
        bool ok = !p.artifact.empty();
        if (ok) {
            CompileResult r;
            ok = serialize::decodeArtifact(p.artifact, p.key, r);
            if (ok) {
                VerifyReport vr = probe("verify", "verify", [&] {
                    return verifyCompileResult(p.blocks, r);
                });
                probe.add("verify.pass", vr.pass() ? 1 : 0);
                probe.add("verify.fail", vr.failed() ? 1 : 0);
                ok = vr.pass();
            }
        }
        out.op(ok, p.request.name + ": pool program failed verification");
        if (!ok)
            p.artifact.clear(); // every later response then mismatches
    }
    probe.endRep();

    Quality quality;
    double request_bytes = 0, response_bytes = 0;
    for (const PoolProgram &p : st->pool) {
        CompileResult r;
        if (serialize::decodeArtifact(p.artifact, p.key, r)) {
            quality.cnot += static_cast<double>(r.stats.cnotCount);
            quality.depth += static_cast<double>(r.stats.depth);
            quality.durationDt += r.stats.durationDt;
        }
        request_bytes += static_cast<double>(
            serve::encodeFrame(serve::FrameType::Submit,
                               serve::encodeSubmit(p.request))
                .size());
        serve::ResultFrame rf;
        rf.jobKey = p.key;
        rf.verify = serve::WireVerify::Pass;
        rf.artifact = p.artifact;
        response_bytes += static_cast<double>(
            serve::encodeFrame(serve::FrameType::Result,
                               serve::encodeResult(rf))
                .size());
    }
    const double pool_n = static_cast<double>(st->pool.size());
    setQuality(out, quality);

    // The server's memory, before the in-process clients add theirs.
    setPeakRss(out);

    // The timed phase: a closed loop per connection, each client
    // walking its own seeded permutation of the pool.
    struct ClientLog
    {
        std::vector<double> rttMs;
        uint64_t requests = 0;
        uint64_t failed = 0;
        std::string firstProblem;
    };
    std::vector<ClientLog> logs(kClients);
    std::vector<std::unique_ptr<serve::ServeClient>> clients;
    for (int c = 0; c < kClients; ++c) {
        std::string err;
        clients.push_back(
            serve::ServeClient::connectTcp(st->server->port(), err));
        if (clients.back() == nullptr) {
            out.op(false, "client connect failed: " + err);
            return;
        }
    }
    const size_t hits0 = st->engine->cache().hits();
    const size_t misses0 = st->engine->cache().misses();
    const uint64_t lock0 = st->engine->cache().lockWaitNs();

    // The timed phase runs in half-second windows. Between windows
    // the clients park and this thread samples the reference loop, so
    // the sample is not slowed by the program it adjusts. A pass is
    // one pool round per client, scaled from each window's requests.
    ClientGate gate(kClients);
    std::atomic<uint64_t> completed{0};
    auto clientLoop = [&](int c) {
        ClientLog &log = logs[c];
        std::vector<size_t> order(st->pool.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::mt19937_64 rng(mixSeed(cfg.seed, 1000 + c));
        for (;;) {
            std::shuffle(order.begin(), order.end(), rng);
            for (size_t i : order) {
                bool resumed = false;
                if (!gate.wait(resumed))
                    return;
                const PoolProgram &p = st->pool[i];
                const uint64_t t0 = steadyNowNs();
                Exchange x = roundTrip(clients[c]->fd(), p.request);
                const uint64_t t1 = steadyNowNs();
                tracer.recordSpan("serve.request", "wait", t0, t1,
                                  p.request.name);
                // The first request after a pause runs on caches the
                // reference loop evicted; it is checked but not timed.
                if (!resumed)
                    log.rttMs.push_back(msBetween(t0, t1));
                ++log.requests;
                completed.fetch_add(1, std::memory_order_relaxed);
                std::string problem = responseProblem(x, p);
                if (!problem.empty()) {
                    ++log.failed;
                    if (log.firstProblem.empty())
                        log.firstProblem = p.request.name + ": " + problem;
                    if (!x.ok) {
                        gate.leave(); // the connection is unusable
                        return;
                    }
                }
            }
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back(clientLoop, c);
    gate.close();

    const double round = static_cast<double>(st->pool.size() * kClients);
    PassTimer timer(host);
    auto othersCpuNs = [] { return cpuNowNs() - threadCpuNowNs(); };
    std::vector<double> cpu_ms_per_request;
    double active_s = 0;
    double ref_ms = host.sample();
    const Interval phase;
    const uint64_t end_ns =
        phase.wall0 + static_cast<uint64_t>(cfg.seconds * 1e9);
    while (steadyNowNs() < end_ns) {
        const uint64_t w0 = steadyNowNs();
        const uint64_t c0 = othersCpuNs();
        const uint64_t before = completed.load();
        gate.open();
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(w0)) +
            std::chrono::milliseconds(500));
        gate.close();
        const double wall_s = msBetween(w0, steadyNowNs()) / 1e3;
        const double cpu_ms = msBetween(c0, othersCpuNs());
        const double n = static_cast<double>(completed.load() - before);
        const double ref_next = host.sample();
        active_s += wall_s;
        if (n > 0) {
            cpu_ms_per_request.push_back(cpu_ms / n);
            const double cpu_s = cpu_ms / 1e3 * round / n;
            timer.add(cpu_s, wall_s * round / n,
                      adjustedSeconds(cpu_s, 0.5 * (ref_ms + ref_next)));
        }
        ref_ms = ref_next;
    }
    gate.stop();
    for (std::thread &t : threads)
        t.join();
    probe.span("bench.timed_phase", "bench", phase.wall0, steadyNowNs());

    std::vector<double> rtt;
    uint64_t requests = 0;
    for (const ClientLog &log : logs) {
        rtt.insert(rtt.end(), log.rttMs.begin(), log.rttMs.end());
        requests += log.requests;
        out.attempted += log.requests;
        out.failed += log.failed;
        if (!log.firstProblem.empty())
            out.failures.push_back(log.firstProblem);
    }
    const double rtt_p50 = median(rtt);
    timer.report(out);
    // pass_s counts CPU only. A round trip that waits off the CPU (a
    // delayed ACK, a poll timeout, a lock hand-off) shows here: on this
    // workload the p50 RTT is close to the CPU one request costs.
    const double cpu_ms = median(cpu_ms_per_request);
    const double rtt_cpu_ratio = cpu_ms > 0 ? rtt_p50 / cpu_ms : 0.0;
    out.op(cpu_ms > 0 && rtt_cpu_ratio <= kMaxRttCpuRatio,
           "p50 round trip is " + std::to_string(rtt_cpu_ratio) +
               " times the CPU time of a request");

    const double hits =
        static_cast<double>(st->engine->cache().hits() - hits0);
    const double misses =
        static_cast<double>(st->engine->cache().misses() - misses0);
    out.perLayer.set("serve.rtt_p50_ms", rtt_p50);
    // p99 only while at least 10 samples lie beyond it.
    out.perLayer.set("serve.rtt_p99_ms",
                     rtt.size() >= 1000 ? percentile(rtt, 99.0) : 0.0);
    out.perLayer.set("serve.requests", static_cast<double>(requests));
    out.perLayer.set("serve.rtt_cpu_ratio", rtt_cpu_ratio);
    out.perLayer.set("serve.req_per_s",
                     static_cast<double>(requests) / active_s);
    out.perLayer.set("serve.request_bytes", request_bytes / pool_n);
    out.perLayer.set("serve.response_bytes", response_bytes / pool_n);
    out.perLayer.set("engine.cache_hits", hits);
    out.perLayer.set("engine.cache_misses", misses);
    out.perLayer.set("engine.hit_ratio",
                     hits + misses > 0 ? hits / (hits + misses) : 0.0);
    out.perLayer.set(
        "engine.lock_wait_ms",
        static_cast<double>(st->engine->cache().lockWaitNs() - lock0) / 1e6);

    if (cfg.trace) {
        // Hop accounting: replay each hop of a warm request on the
        // same bytes, one pool round per repetition, after the timed
        // phase. What the hops leave of the RTT is serve.unaccounted.
        auto &client = clients.front();
        for (int r = 0; r < 5; ++r) {
            for (const PoolProgram &p : st->pool) {
                probe("serve.ping", "serve", [&] { return client->ping(); });
                std::string sub = probe("serve.encode_submit", "serve", [&] {
                    return serve::encodeSubmit(p.request);
                });
                probe("serve.frame_checksum", "serve", [&] {
                    return serve::frameChecksum(sub) ^
                           serve::frameChecksum(sub);
                });
                serve::SubmitRequest req;
                CompileJob job;
                probe("serve.decode_submit", "serve", [&] {
                    std::string err;
                    return serve::decodeSubmit(sub, req, err) &&
                           serve::submitToJob(req, job, err);
                });
                auto res = probe("engine.hit", "engine", [&] {
                    (void)Engine::jobKey(job);
                    return st->engine->submitScoped(std::move(job))->get();
                });
                serve::ResultFrame rf;
                rf.jobKey = p.key;
                rf.verify = serve::WireVerify::Pass;
                rf.artifact = probe("serialize.encode", "serialize", [&] {
                    return serialize::encodeArtifact(p.key, *res);
                });
                std::string payload = probe(
                    "serve.encode_result", "serve",
                    [&] { return serve::encodeResult(rf); });
                probe("serve.frame_checksum", "serve", [&] {
                    return serve::frameChecksum(payload) ^
                           serve::frameChecksum(payload);
                });
                serve::ResultFrame back;
                probe("serve.decode_result", "serve", [&] {
                    return serve::decodeResult(payload, back);
                });
                CompileResult decoded;
                bool ok = probe("serialize.decode", "serialize", [&] {
                    return serialize::decodeArtifact(back.artifact, p.key,
                                                     decoded);
                });
                probe.add("serialize.artifact_bytes",
                          static_cast<double>(rf.artifact.size()));
                if (!ok || rf.artifact != p.artifact)
                    out.op(false, p.request.name + ": hop replay mismatch");
                probe.endRep();
            }
        }
        double hop_sum = 0;
        for (const char *name :
             {"serve.ping_ms", "serve.encode_submit_ms",
              "serve.frame_checksum_ms", "serve.decode_submit_ms",
              "engine.hit_ms", "serialize.encode_ms",
              "serve.encode_result_ms", "serve.decode_result_ms",
              "serialize.decode_ms"})
            hop_sum += probe.medianOf(name);
        out.perLayer.set("serve.unaccounted_ms", rtt_p50 - hop_sum);
    }
    finishSamples(out, probe);
}

// ---- main ------------------------------------------------------------

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-sweep|stream-ingest|serve-warm --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--rev REV]\n",
                 why.c_str());
    std::exit(2);
}

Config
parseArgs(int argc, char **argv)
{
    Config cfg;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            cfg.workload = value;
        } else if (flag == "--seed") {
            cfg.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            cfg.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && cfg.seconds > 0 &&
                           cfg.seconds <= 600;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            cfg.trace = value == "1";
        } else if (flag == "--out") {
            cfg.outDir = value;
        } else if (flag == "--rev") {
            cfg.rev = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (cfg.workload != "paper-sweep" && cfg.workload != "stream-ingest" &&
        cfg.workload != "serve-warm")
        usage("unknown workload '" + cfg.workload + "'");
    if (!have_seed || !have_seconds)
        usage("--seed and --seconds are required");
    return cfg;
}

/**
 * The measured program is pinned by this file alone: any inherited
 * TETRIS_* knob (cache dir, trace file, engine threads, ...) would
 * change what is measured, so it is refused rather than ignored.
 */
void
refuseInheritedKnobs()
{
    bool found = false;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "TETRIS_", 7) == 0) {
            const char *eq = std::strchr(*e, '=');
            std::fprintf(stderr, "perfbench: refusing inherited %.*s\n",
                         static_cast<int>(eq ? eq - *e : std::strlen(*e)),
                         *e);
            found = true;
        }
    }
    if (found) {
        std::fprintf(stderr, "perfbench: unset every TETRIS_* variable; "
                             "the benchmark pins its own configuration\n");
        std::exit(2);
    }
}

std::string
hostName()
{
    char buf[256] = {};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown";
    return buf;
}

void
writeProvenance(JsonWriter &w, const Config &cfg)
{
    w.beginObject();
    w.key("rev").value(cfg.rev);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("compiler").value(PERFBENCH_COMPILER);
    w.key("nproc").value(
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.key("host").value(hostName());
    w.key("workload").value(cfg.workload);
    w.key("seed").value(cfg.seed);
    w.key("seconds").value(cfg.seconds);
    w.key("trace").value(cfg.trace);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const Interval from_main;
    Config cfg = parseArgs(argc, argv);
    refuseInheritedKnobs();
    std::error_code ec;
    fs::create_directories(cfg.outDir, ec);
    if (ec)
        usage("cannot create " + cfg.outDir + ": " + ec.message());

    const std::string stem = cfg.outDir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + "-trace" +
                             (cfg.trace ? "1" : "0");
    Tracer tracer;
    if (cfg.trace)
        tracer.enable(stem + ".trace.json");
    HostRef host(tracer);

    Outcome out;
    if (cfg.workload == "paper-sweep")
        runPaperSweep(cfg, host, from_main, tracer, out);
    else if (cfg.workload == "stream-ingest")
        runStreamIngest(cfg, host, from_main, tracer, out);
    else
        runServeWarm(cfg, host, from_main, tracer, out);

    out.perLayer.set("host.ref_ms", median(host.runs()));
    out.samples["host.ref_ms"] = host.runs();
    if (cfg.trace)
        tracer.writeFile();

    for (const std::string &f : out.failures)
        std::fprintf(stderr, "perfbench: FAIL %s\n", f.c_str());
    const bool correct = out.failed == 0 && out.attempted > 0;

    // The full record: provenance plus both metric sets.
    JsonWriter rec;
    rec.beginObject();
    rec.key("provenance");
    writeProvenance(rec, cfg);
    rec.key("correct").value(correct);
    rec.key("attempted").value(out.attempted);
    rec.key("failed").value(out.failed);
    rec.key("samples").beginObject();
    for (const auto &[name, values] : out.samples) {
        rec.key(name).beginArray();
        for (double v : values)
            rec.value(v);
        rec.endArray();
    }
    rec.endObject();
    rec.key("end_to_end");
    out.endToEnd.write(rec);
    rec.key("per_layer");
    out.perLayer.write(rec);
    rec.endObject();
    std::ofstream(stem + ".record.json", std::ios::trunc) << rec.str()
                                                          << "\n";

    JsonWriter prov;
    writeProvenance(prov, cfg);
    std::printf("provenance %s\n", prov.str().c_str());

    JsonWriter w;
    w.beginObject();
    w.key("correct").value(correct);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("metrics");
    (cfg.trace ? out.perLayer : out.endToEnd).write(w);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
