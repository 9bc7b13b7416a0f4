// pipebench_tool: the in-process half of the pipeline benchmark (run.py is
// the other half, which drives the shipped `linkcluster` binary).
//
//   pipebench_tool info
//       Build type, compiler and core count as one JSON line.
//   pipebench_tool gen --workload rmat|tweet --seed N --output PATH
//       Writes a workload's edge list; the seed is the generator's only input.
//   pipebench_tool trace --input PATH --mode fine|coarse --threads T
//                        --reps R --merges PATH --trace-out PATH
//                        [--queries PATH]
//       Runs the clustering pipeline R times by calling each layer's public
//       function in the order LinkClusterer::cluster does, with a span around
//       every call. With --queries it then compares serve::Server against the
//       direct calls it wraps (kServePairs run pairs, then every query). Prints one JSON line per repetition and one for
//       the serve comparison; writes every span as Chrome trace-event JSON.
//   pipebench_tool answers --merges PATH --mode fine|coarse --edges E
//                          --queries PATH --out PATH
//       The expected protocol response for each query, computed directly on
//       the dendrogram the merge list holds.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dendrogram_io.hpp"
#include "core/link_clusterer.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/run_context.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using lc::core::ClusterMode;

// ---------------------------------------------------------------- tracing --

/// One timed call: name, start, end, the span that caused it, and the run
/// (pipeline repetition) it belongs to.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = 0;  ///< 0 = root
  int run = 0;
};

/// Keeps spans in memory; write() emits them once, at the end.
class Tracer {
 public:
  int begin(const std::string& name, int parent, int run) {
    Span span;
    span.name = name;
    span.start_us = now_us();
    span.id = static_cast<int>(spans_.size()) + 1;
    span.parent = parent;
    span.run = run;
    spans_.push_back(span);
    return span.id;
  }
  /// Ends span `id` and returns its duration in seconds.
  double end(int id) {
    Span& span = spans_[static_cast<std::size_t>(id - 1)];
    span.end_us = now_us();
    return (span.end_us - span.start_us) * 1e-6;
  }
  /// Chrome trace-event JSON ("X" complete events; one row per run).
  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n")
          << lc::strprintf(
                 "{\"name\":\"%s\",\"cat\":\"pipebench\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,"
                 "\"parent\":%d,\"run\":%d}}",
                 s.name.c_str(), s.start_us, s.end_us - s.start_us, s.run, s.id,
                 s.parent, s.run);
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

/// Resets the kernel's peak-RSS mark to the current RSS ("5" to clear_refs),
/// so the next VmHWM read is the peak of what ran in between.
bool reset_peak_rss() {
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// What one layer call cost: wall seconds, CPU utilisation over `threads`
/// cores, and the process peak RSS while it ran.
struct Layer {
  double wall_s = 0.0;
  double cpu_util = 0.0;
  double peak_mb = 0.0;
};

template <typename F>
Layer traced(Tracer& tracer, const std::string& name, int parent, int run,
             std::size_t threads, F&& call) {
  reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const int id = tracer.begin(name, parent, run);
  call();
  Layer layer;
  layer.wall_s = tracer.end(id);
  layer.cpu_util = (cpu_seconds() - cpu0) /
                   (std::max(layer.wall_s, 1e-9) * static_cast<double>(threads));
  layer.peak_mb = peak_rss_mb();
  return layer;
}

// ------------------------------------------------------------------ json --

class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value) {
    sep();
    text_ += lc::strprintf("\"%s\":%.9g", key.c_str(), value);
    return *this;
  }
  JsonLine& str(const std::string& key, const std::string& value) {
    sep();
    text_ += "\"" + key + "\":\"" + value + "\"";
    return *this;
  }
  JsonLine& flag(const std::string& key, bool value) {
    sep();
    text_ += "\"" + key + "\":" + (value ? "true" : "false");
    return *this;
  }
  void print() const { std::cout << text_ << "}" << std::endl; }

 private:
  void sep() { text_ += text_.size() > 1 ? "," : ""; }
  std::string text_ = "{";
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -------------------------------------------------------------- commands --

int cmd_info() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  JsonLine()
      .str("build_type", PIPEBENCH_BUILD_TYPE)
      .str("compiler", PIPEBENCH_COMPILER)
      .flag("ndebug", ndebug)
      .num("hardware_concurrency", std::thread::hardware_concurrency())
      .flag("clear_refs", reset_peak_rss())
      .print();
  return 0;
}

int cmd_gen(const lc::CliFlags& flags) {
  const std::string workload = flags.get_string("workload");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  lc::graph::WeightedGraph graph;
  if (workload == "rmat") {
    lc::bench::RmatOptions options;  // Graph500 corners
    options.scale = 14;
    options.edge_factor = 8;
    options.seed = seed;
    graph = lc::bench::rmat_graph(options);
  } else if (workload == "tweet") {
    lc::bench::WorkloadOptions options;  // the paper's word-association graph
    options.seed = seed;
    options.alphas = {0.1};
    graph = std::move(lc::bench::build_workloads(options).front().graph);
  } else {
    std::cerr << "gen: --workload must be rmat or tweet\n";
    return 1;
  }
  const lc::graph::IoResult written =
      lc::graph::write_edge_list(graph, flags.get_string("output"));
  if (!written.ok) {
    std::cerr << "gen: " << written.error << "\n";
    return 2;
  }
  return 0;
}

/// Memoised cuts: key "k<drop>" or "t<threshold>" -> labels.
using CutMemo = std::map<std::string, std::vector<lc::core::EdgeIdx>>;

/// The response serve::Server gives for `line`, computed directly on
/// `dendrogram` with Dendrogram::labels_after / labels_at_threshold /
/// labels_at_level; a non-null `memo` reuses cuts already made.
std::string expected_response(const lc::core::Dendrogram& dendrogram, ClusterMode mode,
                              const lc::core::EdgeIndex& index, const std::string& line,
                              CutMemo* memo = nullptr) {
  const lc::StatusOr<lc::serve::Request> parsed = lc::serve::parse_request(line);
  if (!parsed.ok()) return "unparsable query";
  const lc::serve::Request& request = *parsed;
  const auto cut = [&](const std::string& key, auto&& compute) {
    if (memo == nullptr) return compute();
    auto found = memo->find(key);
    if (found == memo->end()) found = memo->emplace(key, compute()).first;
    return found->second;
  };
  const auto at_threshold = [&] {
    const std::string threshold = request.get("threshold");
    return cut("t" + threshold,
               [&] { return dendrogram.labels_at_threshold(std::stod(threshold)); });
  };
  const auto after = [&](std::uint64_t events) {
    std::string key = "k";
    key += std::to_string(events);
    return cut(key, [&] { return dendrogram.labels_after(events); });
  };
  if (request.command == "cut") {
    std::vector<lc::core::EdgeIdx> labels;
    if (request.has("k")) {
      const std::uint64_t want = std::stoull(request.get("k"));
      const std::uint64_t leaves = dendrogram.leaf_count();
      const std::uint64_t drop = want >= leaves ? 0 : leaves - want;
      labels = after(std::min<std::uint64_t>(drop, dendrogram.events().size()));
    } else {
      labels = at_threshold();
    }
    std::size_t clusters = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == i) ++clusters;
    }
    return "ok clusters=" + std::to_string(clusters) + " leaves=" + std::to_string(labels.size());
  }
  if (request.command == "member") {
    const std::string edge = request.get("edge");
    const lc::core::EdgeIdx position =
        index.index_of(static_cast<lc::graph::EdgeId>(std::stoull(edge)));
    // A run's final labels: every event in fine mode; in coarse mode the
    // level before the root level that merges the clusters left at the stop.
    const auto final_labels = [&] {
      if (mode == ClusterMode::kFine) return after(dendrogram.events().size());
      return cut("root", [&] { return dendrogram.labels_at_level(dendrogram.height() - 1); });
    };
    const std::vector<lc::core::EdgeIdx> labels =
        request.has("threshold") ? at_threshold() : final_labels();
    return "ok edge=" + edge + " label=" + std::to_string(labels[position]);
  }
  return "unsupported query";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

int cmd_answers(const lc::CliFlags& flags) {
  std::ifstream in(flags.get_string("merges"), std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  lc::StatusOr<lc::core::Dendrogram> dendrogram = lc::core::parse_merge_list(text.str());
  if (!dendrogram.ok()) {
    std::cerr << "answers: " << dendrogram.status().to_string() << "\n";
    return 2;
  }
  const ClusterMode mode =
      flags.get_string("mode") == "coarse" ? ClusterMode::kCoarse : ClusterMode::kFine;
  // The CLI's and serve's edge enumeration: shuffled, seed 42.
  const lc::core::EdgeIndex index(static_cast<std::size_t>(flags.get_int("edges")),
                                  lc::core::EdgeOrder::kShuffled, 42);
  std::ofstream out(flags.get_string("out"), std::ios::trunc);
  CutMemo memo;
  for (const std::string& query : read_lines(flags.get_string("queries"))) {
    out << expected_response(*dendrogram, mode, index, query, &memo) << "\n";
  }
  return out ? 0 : 2;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// One repetition of the production pipeline — `linkcluster cluster` with
/// default flags, --threads `threads` and --merges `merges` — composed from
/// the layers' public functions in LinkClusterer::cluster's order.
bool traced_pipeline(Tracer& tracer, int run, const std::string& input, ClusterMode mode,
                     std::size_t threads, const std::string& merges) {
  using namespace lc;
  const auto bytes = static_cast<double>(std::filesystem::file_size(input));
  const int root = tracer.begin("pipeline", 0, run);
  const auto layer = [&](const std::string& name, auto&& call) {
    return traced(tracer, name, root, run, threads, call);
  };

  std::optional<graph::WeightedGraph> graph;
  graph::IoResult io;
  const Layer read = layer("graph.io.read", [&] { graph = graph::read_edge_list(input, &io); });
  if (!graph.has_value()) {
    std::cerr << "trace: " << io.error << "\n";
    return false;
  }

  // LinkClusterer::Config defaults, as the CLI sets them; the CLI always
  // attaches a RunContext (no deadline, no budget).
  const core::LinkClusterer::Config config;
  RunContext ctx;
  core::EdgeIndex index;
  std::unique_ptr<parallel::ThreadPool> pool;
  const Layer setup = layer("core.run_setup", [&] {
    index = core::EdgeIndex(graph->edge_count(), config.edge_order, config.seed);
    if (threads > 1) pool = std::make_unique<parallel::ThreadPool>(threads);
  });

  auto map = std::make_unique<core::SimilarityMap>();
  core::BuildStats build_stats;
  const Layer build = layer("core.similarity.build", [&] {
    core::SimilarityMapOptions options{config.map_kind, config.measure};
    options.ctx = &ctx;
    options.strategy = config.build_strategy;
    options.stats = &build_stats;
    *map = pool != nullptr
               ? core::build_similarity_map_parallel(*graph, *pool, nullptr, options)
               : core::build_similarity_map(*graph, options);
  });
  const std::uint64_t k1 = map->key_count();
  const std::uint64_t k2 = map->incident_pair_count();

  std::unique_ptr<core::BucketSweepSource> source;
  const Layer partition = layer("core.sweep_source.partition", [&] {
    core::BucketSweepSource::Options options;
    options.bucket_count = config.sweep_buckets;
    options.pool = pool.get();
    source = std::make_unique<core::BucketSweepSource>(*map, options);
  });

  core::Dendrogram dendrogram;
  core::SweepStats sweep_stats;
  std::optional<core::CoarseResult> coarse;
  const bool fine = mode == ClusterMode::kFine;
  const Layer sweep = layer(fine ? "core.sweep" : "core.coarse", [&] {
    if (fine) {
      core::SweepResult result =
          core::sweep(*graph, *map, *source, index, {},
                      -std::numeric_limits<double>::infinity(), &ctx);
      dendrogram = std::move(result.dendrogram);
      sweep_stats = result.stats;
    } else {
      coarse = core::coarse_sweep(*graph, *map, *source, index, config.coarse, pool.get(),
                                  nullptr, &ctx);
      dendrogram = coarse->dendrogram;
      sweep_stats = coarse->stats;
    }
  });
  const core::SweepSourceStats source_stats = source->stats();

  // cluster() returns here: its source, map and pool die in that order.
  const Layer release = layer("core.release", [&] {
    source.reset();
    map.reset();
    pool.reset();
  });

  std::size_t merge_bytes = 0;
  const Layer write = layer("core.dendrogram_io.write", [&] {
    const std::string text = core::to_merge_list(dendrogram);
    merge_bytes = text.size();
    std::ofstream file(merges);
    file << text;
  });
  const double wall = tracer.end(root);
  const double layer_sum = read.wall_s + setup.wall_s + build.wall_s + partition.wall_s +
                           sweep.wall_s + release.wall_s + write.wall_s;

  const double blocked_s = source_stats.blocked_ms * 1e-3;
  JsonLine line;
  line.num("run", run)
      .num("input.vertices", static_cast<double>(graph->vertex_count()))
      .num("input.edges", static_cast<double>(graph->edge_count()))
      .num("graph.io.read_s", read.wall_s)
      .num("graph.io.mb_per_s", ratio(bytes / 1e6, read.wall_s))
      .num("graph.io.peak_rss_mb", read.peak_mb)
      .num("core.similarity.build_s", build.wall_s)
      .num("core.similarity.cpu_util", build.cpu_util)
      .num("core.similarity.pass1_ms", build_stats.pass1_ms)
      .num("core.similarity.pass2_ms", build_stats.pass2_ms)
      .num("core.similarity.pass3_ms", build_stats.pass3_ms)
      .num("core.similarity.k1", static_cast<double>(k1))
      .num("core.similarity.k2", static_cast<double>(k2))
      .num("core.similarity.exact_frac",
           ratio(static_cast<double>(build_stats.pairs_exact), static_cast<double>(k1)))
      .num("core.similarity.peak_rss_mb", build.peak_mb)
      .num("core.sweep_source.partition_ms", partition.wall_s * 1e3)
      .num("core.sweep_source.bucket_sort_ms", source_stats.bucket_sort_ms)
      .num("core.sweep_source.blocked_ms", source_stats.blocked_ms)
      .num("core.sweep_source.buckets_sorted", static_cast<double>(source_stats.buckets_sorted))
      .num("core.sweep_source.buckets_skipped",
           static_cast<double>(source_stats.buckets_skipped))
      .num("core.sweep_source.peak_rss_mb", partition.peak_mb)
      .num("core.release_ms", release.wall_s * 1e3)
      .num("core.dendrogram_io.write_s", write.wall_s)
      .num("core.dendrogram_io.bytes", static_cast<double>(merge_bytes))
      .num("trace.layer_sum_frac", layer_sum / wall);
  if (fine) {
    line.num("core.sweep.sweep_s", sweep.wall_s)
        .num("core.sweep.self_s", sweep.wall_s - blocked_s)
        .num("core.sweep.cpu_util", sweep.cpu_util)
        .num("core.sweep.pairs_processed", static_cast<double>(sweep_stats.pairs_processed))
        .num("core.sweep.merges_effective", static_cast<double>(sweep_stats.merges_effective))
        .num("core.sweep.merge_yield", ratio(static_cast<double>(sweep_stats.merges_effective),
                                             static_cast<double>(sweep_stats.pairs_processed)))
        .num("core.sweep.c_accesses", static_cast<double>(sweep_stats.c_accesses))
        .num("core.sweep.peak_rss_mb", sweep.peak_mb);
  } else {
    line.num("core.coarse.sweep_s", sweep.wall_s)
        .num("core.coarse.cpu_util", sweep.cpu_util)
        .num("core.coarse.levels", static_cast<double>(coarse->levels.size()))
        .num("core.coarse.rollbacks", static_cast<double>(coarse->rollback_count))
        .num("core.coarse.processed_frac",
             ratio(static_cast<double>(coarse->pairs_processed),
                   static_cast<double>(coarse->pairs_total)))
        .num("core.coarse.peak_rss_mb", sweep.peak_mb);
  }
  line.print();
  return true;
}

/// Alternating (direct run + merge-list write, serve run + wait) pairs in
/// the serve comparison.
constexpr int kServePairs = 3;

/// serve::Server over its line protocol against the direct calls it wraps:
/// kServePairs alternating (direct run + merge-list write, serve run + wait)
/// pairs, then every query answered both ways.
bool traced_serve(Tracer& tracer, int first_run, const std::string& input, ClusterMode mode,
                  std::size_t threads, const std::string& merges,
                  const std::string& queries_path) {
  using namespace lc;
  std::optional<graph::WeightedGraph> graph = graph::read_edge_list(input);
  if (!graph.has_value()) return false;
  core::LinkClusterer::Config config;
  config.mode = mode;
  config.threads = threads;
  RunContext ctx;
  config.ctx = &ctx;
  const std::string mode_name = mode == ClusterMode::kFine ? "fine" : "coarse";
  const std::string serve_merges = merges + ".serve";

  std::vector<double> run_overhead;
  std::optional<core::ClusterResult> direct;
  std::unique_ptr<serve::Server> server;
  bool ok = true;
  for (int pair = 0; pair < kServePairs; ++pair) {
    const int run = first_run + pair;
    const int root = tracer.begin("serve.pair", 0, run);
    double direct_s = 0.0;
    double serve_s = 0.0;
    const auto run_direct = [&] {
      const int id = tracer.begin("core.cluster.direct", root, run);
      StatusOr<core::ClusterResult> result = core::LinkClusterer(config).run(*graph);
      ok = ok && result.ok();
      if (result.ok()) {
        std::ofstream file(merges);
        file << core::to_merge_list(result->dendrogram);
        direct = std::move(result).value();
      }
      direct_s = tracer.end(id);
    };
    const auto run_serve = [&] {
      server = std::make_unique<serve::Server>(serve::ServerOptions{});
      std::string response;
      server->handle_line("load path=" + serve::quote_value(input), &response);
      const int id = tracer.begin("serve.run", root, run);
      server->handle_line("run mode=" + mode_name + " threads=" + std::to_string(threads) +
                              " merges=" + serve::quote_value(serve_merges),
                          &response);
      server->handle_line("wait", &response);
      serve_s = tracer.end(id);
      ok = ok && response.find("state=done") != std::string::npos;
    };
    if (pair % 2 == 0) {
      run_direct();
      run_serve();
    } else {
      run_serve();
      run_direct();
    }
    tracer.end(root);
    run_overhead.push_back(serve_s - direct_s);
  }
  if (!direct.has_value() || server == nullptr) return false;

  std::vector<double> cut_ms;
  std::vector<double> overhead_ms;
  std::size_t mismatches = 0;
  const int run = first_run + kServePairs;
  const int root = tracer.begin("serve.queries", 0, run);
  const std::vector<std::string> queries = read_lines(queries_path);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    // Alternate which side goes first so neither always meets a warm cache.
    std::string want;
    std::string got;
    double direct_s = 0.0;
    double serve_s = 0.0;
    const auto direct_cut = [&] {
      const int id = tracer.begin("core.dendrogram.cut", root, run);
      want = expected_response(direct->dendrogram, mode, direct->edge_index, queries[q]);
      direct_s = tracer.end(id);
    };
    const auto serve_cut = [&] {
      const int id = tracer.begin("serve.query", root, run);
      server->handle_line(queries[q], &got);
      serve_s = tracer.end(id);
    };
    if (q % 2 == 0) {
      direct_cut();
      serve_cut();
    } else {
      serve_cut();
      direct_cut();
    }
    if (got != want + "\n") ++mismatches;
    cut_ms.push_back(direct_s * 1e3);
    overhead_ms.push_back((serve_s - direct_s) * 1e3);
  }
  tracer.end(root);
  JsonLine()
      .num("serve.run_overhead_s", median(run_overhead))
      .num("core.dendrogram.cut_ms", median(cut_ms))
      .num("serve.query_overhead_ms", median(overhead_ms))
      .num("queries", static_cast<double>(cut_ms.size()))
      .num("mismatches", static_cast<double>(mismatches))
      .print();
  return ok;
}

int cmd_trace(const lc::CliFlags& flags) {
  const std::string input = flags.get_string("input");
  const std::string mode_name = flags.get_string("mode");
  if (mode_name != "fine" && mode_name != "coarse") {
    std::cerr << "trace: --mode must be fine or coarse\n";
    return 1;
  }
  const ClusterMode mode = mode_name == "fine" ? ClusterMode::kFine : ClusterMode::kCoarse;
  const auto threads =
      static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("threads")));
  const int reps = static_cast<int>(flags.get_int("reps"));
  Tracer tracer;
  for (int run = 1; run <= reps; ++run) {
    if (!traced_pipeline(tracer, run, input, mode, threads, flags.get_string("merges"))) {
      return 2;
    }
  }
  const std::string queries = flags.get_string("queries");
  if (!queries.empty() &&
      !traced_serve(tracer, reps + 1, input, mode, threads,
                    flags.get_string("merges") + ".direct", queries)) {
    return 2;
  }
  return tracer.write(flags.get_string("trace-out")) ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pipebench_tool info|gen|trace|answers [flags]\n";
    return 1;
  }
  const std::string command = argv[1];
  lc::CliFlags flags;
  if (command == "gen") {
    flags.add_string("workload", "", "rmat | tweet");
    flags.add_int("seed", 0, "generator seed");
    flags.add_string("output", "", "edge-list file to write");
  } else if (command == "trace") {
    flags.add_string("input", "", "edge-list file");
    flags.add_string("mode", "fine", "fine | coarse");
    flags.add_int("threads", 1, "worker threads");
    flags.add_int("reps", 1, "pipeline repetitions");
    flags.add_string("merges", "", "merge-list file the pipeline writes");
    flags.add_string("trace-out", "", "Chrome trace-event JSON to write");
    flags.add_string("queries", "", "protocol queries for the serve comparison");
  } else if (command == "answers") {
    flags.add_string("merges", "", "merge list");
    flags.add_string("mode", "fine", "fine | coarse: the run's mode");
    flags.add_int("edges", 0, "edge count of the clustered graph");
    flags.add_string("queries", "", "protocol queries, one a line");
    flags.add_string("out", "", "expected responses, one a line");
  } else if (command != "info") {
    std::cerr << "unknown command " << command << "\n";
    return 1;
  }
  if (!flags.parse(argc - 1, argv + 1)) return 1;
  if (command == "info") return cmd_info();
  if (command == "gen") return cmd_gen(flags);
  if (command == "trace") return cmd_trace(flags);
  return cmd_answers(flags);
}
