// diva_bench — the DIVA benchmark harness. run.py builds it and drives
// its modes:
//
//   diva_bench gen   --workload W --seed N --dir D [--shape-seed S] [--tiny]
//       writes the workload's inputs into D
//   diva_bench ready --dir D --width T
//       the set-up probe: starts the pool, loads schema and Sigma, prints
//       "ready" and exits
//   diva_bench footprint --workload W --dir D
//       one batch publish at thread width 1; prints its peak resident MiB
//   diva_bench run   --workload W --seed N --seconds S --trace 0|1 --dir D
//                    [--shape-seed S] [--tiny] [--source-hash H]
//                    [--commit C]
//       runs the workload on the inputs in D for S seconds, checks every
//       output, and prints the full result (with _meta) and then the
//       result line as the last line of stdout
//
// Exit status: 0 when every check held, 1 when one failed, 2 on usage
// or input errors.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "common/string_util.h"
#include "constraint/parser.h"
#include "report.h"
#include "runs.h"
#include "workloads.h"

namespace {

using namespace diva_bench;  // NOLINT: harness brevity

int Usage(const std::string& message) {
  std::fprintf(stderr, "diva_bench: %s (see main.cc)\n", message.c_str());
  return 2;
}

/// Largest pipeline width of the batch workloads.
constexpr size_t kMaxWidth = 4;

int Ready(std::map<std::string, std::string>& args) {
  auto width = diva::ParseInt64(args["width"]);
  if (!width.ok() || *width < 1) return Usage("--width must be positive");
  diva::SetParallelThreads(static_cast<size_t>(*width));
  auto schema = LoadSchema(SchemaPath(args["dir"]));
  if (!schema.ok()) return Usage(schema.status().ToString());
  auto sigma = diva::LoadConstraintSet(**schema, SigmaPath(args["dir"]));
  if (!sigma.ok()) return Usage(sigma.status().ToString());
  std::printf("ready %zu constraints\n", sigma->size());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("expected a mode: gen | ready | footprint | run");
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      args["tiny"] = "1";
    } else if (diva::StartsWith(arg, "--") && i + 1 < argc) {
      args[std::string(arg.begin() + 2, arg.end())] = argv[++i];
    } else {
      return Usage("unexpected argument '" + arg + "'");
    }
  }
  if (!args.count("dir")) return Usage("--dir is required");
  if (mode == "ready") return Ready(args);

  auto spec = FindWorkload(args["workload"], args.count("tiny") != 0);
  if (!spec.ok()) return Usage(spec.status().ToString());
  auto int_arg = [&](const char* key, int64_t fallback) -> int64_t {
    if (!args.count(key)) return fallback;
    auto value = diva::ParseInt64(args[key]);
    return value.ok() ? *value : -1;
  };
  const int64_t seed = int_arg("seed", static_cast<int64_t>(kDefaultSeed));
  const int64_t shape_seed =
      int_arg("shape-seed", static_cast<int64_t>(kDefaultShapeSeed));
  if (seed < 0 || shape_seed < 0) return Usage("seeds must be non-negative");

  if (mode == "gen") {
    diva::Status generated =
        GenerateInputs(*spec, static_cast<uint64_t>(seed),
                       static_cast<uint64_t>(shape_seed), args["dir"]);
    if (!generated.ok()) return Usage(generated.ToString());
    return 0;
  }
  RunConfig config;
  config.spec = *spec;
  config.dir = args["dir"];
  if (mode == "footprint") return RunFootprint(config);
  if (mode != "run") return Usage("unknown mode '" + mode + "'");
  config.seed = static_cast<uint64_t>(seed);
  config.trace = int_arg("trace", 0) == 1;
  const int64_t seconds = int_arg("seconds", 10);
  if (seconds < 1) return Usage("--seconds must be positive");
  config.seconds = static_cast<double>(seconds);
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  config.width = std::min(kMaxWidth, nproc);

  InputFacts facts;
  if (!HashInputs(config.dir, &facts)) return Usage("cannot hash the inputs");
  size_t constraints = 0;
  if (auto schema = LoadSchema(SchemaPath(config.dir)); schema.ok()) {
    auto sigma = diva::LoadConstraintSet(**schema, SigmaPath(config.dir));
    if (sigma.ok()) constraints = sigma->size();
  }

  RunResult result;
  if (spec->batch) {
    RunBatch(config, &result);
  } else {
    RunServeMix(config, &result);
  }

  result.MetaString("workload", spec->name);
  result.MetaNumber("seed", static_cast<double>(seed));
  result.MetaNumber("shape_seed", static_cast<double>(shape_seed));
  result.Meta("tiny", args.count("tiny") ? "true" : "false");
  result.Meta("trace", config.trace ? "true" : "false");
  result.MetaNumber("run_seconds", config.seconds);
  result.MetaNumber("nproc", static_cast<double>(nproc));
  result.MetaNumber("thread_width", static_cast<double>(config.width));
  result.MetaString("build_type", DIVA_BENCH_BUILD_TYPE);
  result.MetaString("compiler", std::string("gcc ") + __VERSION__);
  result.MetaString("source_hash", args.count("source-hash") ? args["source-hash"]
                                                             : "unknown");
  result.MetaString("commit", args.count("commit") ? args["commit"] : "unknown");
  result.MetaNumber("rows", static_cast<double>(spec->rows));
  result.MetaNumber("constraints", static_cast<double>(constraints));
  result.MetaNumber("csv_bytes", static_cast<double>(facts.csv_bytes));
  result.MetaNumber("input_files", static_cast<double>(facts.files));
  char hash[20];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(facts.hash));
  result.MetaString("input_hash", hash);

  std::printf("%s\n%s\n", result.FullJson().c_str(), result.FinalLine().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
