// generate_workload — emits a ready-to-use workload for anonymize_cli:
// a CSV relation from one of the dataset profiles, its schema
// declaration, and a generated diversity-constraint file.
//
// Usage:
//   generate_workload [--profile pantheon|census|credit|popsyn]
//       [--rows N] [--constraints N] [--seed N] [--prefix PATH]
//
// Writes <prefix>_data.csv, <prefix>_schema.txt, <prefix>_sigma.txt
// (default prefix "workload"), then prints the anonymize_cli invocation
// that consumes them. An unknown flag or a flag without a value prints
// the usage and exits 1 without writing anything.

#include <cstdio>
#include <fstream>
#include <string>

#include "common/string_util.h"
#include "constraint/generator.h"
#include "datagen/profiles.h"
#include "examples/example_util.h"
#include "relation/csv.h"

namespace {

using namespace diva;  // NOLINT: example brevity

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int UsageError(const std::string& message) {
  Fail(message);
  std::fprintf(stderr,
               "usage: generate_workload "
               "[--profile pantheon|census|credit|popsyn]\n"
               "           [--rows N] [--constraints N] [--seed N] "
               "[--prefix PATH]\n");
  return 1;
}

const char* RoleToken(AttributeRole role) {
  switch (role) {
    case AttributeRole::kIdentifier:
      return "id";
    case AttributeRole::kQuasiIdentifier:
      return "qi";
    case AttributeRole::kSensitive:
      return "sensitive";
  }
  return "qi";
}

const char* KindToken(AttributeKind kind) {
  return kind == AttributeKind::kNumeric ? "num" : "cat";
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed_args = examples::Flags::Parse(
      argc, argv, {"profile", "rows", "constraints", "seed", "prefix"}, {});
  if (!parsed_args.ok()) return UsageError(parsed_args.status().message());
  const examples::Flags args = std::move(parsed_args).value();

  DatasetProfile profile = DatasetProfile::kPopSyn;
  if (args.Has("profile")) {
    std::string name = ToLowerAscii(args.Get("profile"));
    if (name == "pantheon") {
      profile = DatasetProfile::kPantheon;
    } else if (name == "census") {
      profile = DatasetProfile::kCensus;
    } else if (name == "credit") {
      profile = DatasetProfile::kCredit;
    } else if (name == "popsyn" || name == "pop-syn") {
      profile = DatasetProfile::kPopSyn;
    } else {
      return Fail("unknown profile '" + name + "'");
    }
  }

  ProfileOptions options;
  options.seed = 42;
  if (args.Has("seed")) {
    auto seed = ParseInt64(args.Get("seed"));
    if (!seed.ok()) return Fail("--seed must be an integer");
    options.seed = static_cast<uint64_t>(*seed);
  }
  if (args.Has("rows")) {
    auto rows = ParseInt64(args.Get("rows"));
    if (!rows.ok() || *rows < 1) return Fail("--rows must be positive");
    options.num_rows = static_cast<size_t>(*rows);
  }

  auto relation = GenerateProfile(profile, options);
  if (!relation.ok()) return Fail(relation.status().ToString());

  ConstraintGenOptions gen;
  gen.count = DefaultConstraintCount(profile);
  if (args.Has("constraints")) {
    auto count = ParseInt64(args.Get("constraints"));
    if (!count.ok() || *count < 0) return Fail("--constraints must be >= 0");
    gen.count = static_cast<size_t>(*count);
  }
  gen.min_support = 8;
  gen.seed = options.seed;
  auto constraints = GenerateConstraints(*relation, gen);
  if (!constraints.ok()) return Fail(constraints.status().ToString());

  std::string prefix = args.Has("prefix") ? args.Get("prefix") : "workload";

  std::string data_path = prefix + "_data.csv";
  Status written = WriteCsvFile(*relation, data_path);
  if (!written.ok()) return Fail(written.ToString());

  std::string schema_path = prefix + "_schema.txt";
  {
    std::ofstream schema_out(schema_path, std::ios::trunc);
    if (!schema_out) return Fail("cannot write " + schema_path);
    for (const Attribute& attr : relation->schema().attributes()) {
      schema_out << attr.name << "," << RoleToken(attr.role) << ","
                 << KindToken(attr.kind) << "\n";
    }
  }

  std::string sigma_path = prefix + "_sigma.txt";
  {
    std::ofstream sigma_out(sigma_path, std::ios::trunc);
    if (!sigma_out) return Fail("cannot write " + sigma_path);
    sigma_out << "# " << DatasetProfileToString(profile)
              << " profile, seed " << options.seed << "\n";
    for (const auto& constraint : *constraints) {
      sigma_out << constraint.ToString() << "\n";
    }
  }

  std::printf("wrote %s (%zu rows), %s (%zu attributes), %s (%zu constraints)\n",
              data_path.c_str(), relation->NumRows(), schema_path.c_str(),
              relation->NumAttributes(), sigma_path.c_str(),
              constraints->size());
  std::printf("\ntry:\n  anonymize_cli --input %s --schema %s \\\n"
              "      --constraints %s --k 10 --output %s_anon.csv\n",
              data_path.c_str(), schema_path.c_str(), sigma_path.c_str(),
              prefix.c_str());
  return 0;
}
