#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/corpus_cache.hpp"
#include "exp/report.hpp"
#include "experiments.hpp"
#include "util/json_lines.hpp"
#include "util/timer.hpp"

namespace dsketch::exp {

namespace {

namespace fs = std::filesystem;

/// One fully prepared unit of work.
struct Job {
  Cell cell;
  const bench::Experiment* experiment = nullptr;
  std::vector<std::pair<std::string, std::string>> flags;  ///< resolved
  std::string out_path;
  std::string tmp_dir;
  std::uint64_t seed = 0;  ///< the seed actually passed (explicit or derived)
};

std::string last_nonempty_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

std::string render_params(
    const std::vector<std::pair<std::string, std::string>>& params) {
  std::string out;
  for (const auto& [k, v] : params) {
    if (!out.empty()) out += " ";
    out += k + "=" + v;
  }
  return out;
}

/// Derived per-cell seed: stable under reordering and thread count, mixed
/// from the manifest's base seed and the cell's content address.
std::uint64_t derive_seed(std::uint64_t base_seed, const std::string& id) {
  return (base_seed + 1) * 0x9e3779b97f4a7c15ULL ^ fnv1a64(id);
}

void run_job(const Job& job, const Timer& run_clock, CellResult& result) {
  result.started = run_clock.seconds();
  Timer timer;
  fs::create_directories(job.tmp_dir);

  std::ostringstream body;
  {
    bench::JsonLine header;
    header.add("cell", job.cell.id())
        .add("experiment", job.cell.experiment)
        .add("params", render_params(job.cell.params))
        .add("status", "start");
    header.emit(body);
  }
  int exit_code = 0;
  std::string error;
  try {
    exit_code = job.experiment->run(FlagSet(job.flags), body);
    if (exit_code != 0) {
      error = "experiment returned exit code " + std::to_string(exit_code);
    }
  } catch (const std::exception& e) {
    exit_code = 1;
    error = e.what();
  }
  result.seconds = timer.seconds();

  bench::JsonLine footer;
  footer.add("cell", job.cell.id())
      .add("experiment", job.cell.experiment)
      .add("status", exit_code == 0 ? "ok" : "failed")
      .add("exit_code", exit_code)
      .add("seed", job.seed)
      .add("wall_seconds", result.seconds);
  if (!error.empty()) footer.add("error", error);
  footer.emit(body);

  // Write whole-file-at-once to a temp name; only a successful cell gets
  // renamed to the resumable artifact name.
  const std::string tmp_path = job.out_path + ".tmp";
  {
    std::ofstream out(tmp_path);
    if (!out) throw std::runtime_error("cannot write " + tmp_path);
    out << body.str();
  }
  std::error_code ec;
  fs::remove_all(job.tmp_dir, ec);
  if (exit_code == 0) {
    fs::rename(tmp_path, job.out_path);
    result.status = CellResult::Status::kRan;
  } else {
    fs::rename(tmp_path, job.out_path + ".failed");
    // A stale success artifact from an earlier run must not survive a
    // failing rerun: it would feed outdated rows into the report and
    // make the next resume skip the now-broken cell.
    fs::remove(job.out_path, ec);
    result.status = CellResult::Status::kFailed;
    result.error = error;
  }
}

}  // namespace

std::string cell_output_path(const std::string& out_dir,
                             const std::string& cell_id) {
  return (fs::path(out_dir) / "cells" / (cell_id + ".jsonl")).string();
}

bool cell_output_valid(const std::string& path, const std::string& cell_id) {
  const std::string last = last_nonempty_line(path);
  if (last.empty()) return false;
  JsonObject object;
  if (!parse_json_line(last, object)) return false;
  return json_value(object, "status") == "ok" &&
         json_value(object, "cell") == cell_id;
}

RunSummary run_manifest(const Manifest& manifest, const RunOptions& options) {
  if (options.out_dir.empty()) {
    throw std::runtime_error("run_manifest: out_dir is required");
  }
  Timer total;
  const std::string corpus_dir = options.corpus_dir.empty()
                                     ? (fs::path(options.out_dir) / "corpus")
                                           .string()
                                     : options.corpus_dir;
  fs::create_directories(fs::path(options.out_dir) / "cells");

  const std::vector<Cell> cells = expand_cells(manifest);

  // Materialize every referenced corpus graph once, up front (cells then
  // share the files read-only).
  std::map<std::string, std::string> graph_paths;
  for (const Cell& cell : cells) {
    for (const auto& [key, value] : cell.params) {
      if (key != "graph" || graph_paths.count(value)) continue;
      const GraphSpec* spec = manifest.find_graph(value);
      if (spec == nullptr) {
        throw std::runtime_error("cell " + cell.id() +
                                 " references unknown graph `" + value + "`");
      }
      graph_paths[value] = ensure_graph(*spec, corpus_dir);
    }
  }

  // Prepare jobs; resolve graph names to paths and inject the runner-
  // provided flags (--tmpdir for scratch files, --seed for experiments
  // that accept one).
  std::vector<Job> jobs;
  RunSummary summary;
  summary.cells.resize(cells.size());
  std::mutex io_mutex;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    CellResult& result = summary.cells[i];
    result.id = cell.id();
    result.experiment = cell.experiment;
    result.out_path = cell_output_path(options.out_dir, cell.id());

    const bench::Experiment* exp = bench::find_experiment(cell.experiment);
    if (exp == nullptr) {
      const std::vector<bench::Experiment>& known =
          bench::experiment_registry();
      throw std::runtime_error("manifest cell " + cell.id() +
                               ": unknown experiment `" + cell.experiment +
                               "` (known: " + known.front().id + ".." +
                               known.back().id + ")");
    }
    if (!options.force && cell_output_valid(result.out_path, cell.id())) {
      result.status = CellResult::Status::kSkipped;
      continue;
    }

    Job job;
    job.cell = cell;
    job.experiment = exp;
    job.out_path = result.out_path;
    job.tmp_dir =
        (fs::path(options.out_dir) / "tmp" / cell.id()).string();
    bool has_seed = false;
    for (const auto& [key, value] : cell.params) {
      if (key == "graph") {
        job.flags.emplace_back(key, graph_paths.at(value));
      } else {
        job.flags.emplace_back(key, value);
      }
      if (key == "seed") {
        has_seed = true;
        // Throws on a non-numeric seed here, on the main thread, before
        // any cell has run.
        job.seed = std::stoull(value);
      }
    }
    job.flags.emplace_back("tmpdir", job.tmp_dir);
    if (!has_seed) {
      job.seed = derive_seed(manifest.base_seed, cell.id());
      job.flags.emplace_back("seed", std::to_string(job.seed));
    }
    jobs.push_back(std::move(job));
  }

  // Cells of experiments marked `alone` (the timing-sensitive ones) run
  // last, one at a time: a parallel neighbour would take their CPU, and
  // its trace session would close theirs (there is one per process).
  const auto parallel_jobs = static_cast<std::size_t>(
      std::stable_partition(
          jobs.begin(), jobs.end(),
          [](const Job& job) { return !job.experiment->alone; }) -
      jobs.begin());

  // Dynamic work queue on plain std::thread workers, each pulling the next
  // pending job below `end` until the queue drains. Cells do not run as
  // ThreadPool tasks: inside a pool task every nested parallel loop runs
  // serially (tl_inside_pool), which would serialize the cells' own
  // parallel builds and E12's service lanes.
  std::map<std::string, CellResult*> result_by_id;
  for (CellResult& r : summary.cells) result_by_id[r.id] = &r;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(
             parallel_jobs,
             options.threads != 0 ? options.threads
                                  : std::thread::hardware_concurrency()));
  auto worker = [&](std::size_t end) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= end) return;
      const Job& job = jobs[i];
      CellResult& result = *result_by_id.at(job.cell.id());
      try {
        run_job(job, total, result);
      } catch (const std::exception& e) {
        // run_job already contains the experiment's own try/catch; what
        // lands here is artifact I/O (disk full, out_dir removed). An
        // exception escaping a worker thread would std::terminate the
        // whole grid, so degrade to a failed cell instead.
        result.status = CellResult::Status::kFailed;
        result.error = e.what();
      }
      const std::size_t finished = done.fetch_add(1) + 1;
      if (options.progress != nullptr) {
        const std::string status =
            result.status == CellResult::Status::kFailed
                ? "FAILED (" + result.error + ")"
                : "ok";
        std::lock_guard<std::mutex> lock(io_mutex);
        *options.progress << "[" << finished << "/" << jobs.size() << "] "
                          << job.cell.id() << " " << status << " ("
                          << static_cast<int>(result.seconds * 1000)
                          << " ms)\n";
      }
    }
  };
  if (parallel_jobs <= 1 || workers == 1) {
    worker(parallel_jobs);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back(worker, parallel_jobs);
    }
    worker(parallel_jobs);
    for (auto& t : pool) t.join();
  }
  next = parallel_jobs;
  worker(jobs.size());

  for (const CellResult& r : summary.cells) {
    switch (r.status) {
      case CellResult::Status::kRan: ++summary.ran; break;
      case CellResult::Status::kSkipped: ++summary.skipped; break;
      case CellResult::Status::kFailed: ++summary.failed; break;
    }
  }
  std::error_code ec;
  fs::remove_all(fs::path(options.out_dir) / "tmp", ec);
  summary.wall_seconds = total.seconds();
  return summary;
}

}  // namespace dsketch::exp
