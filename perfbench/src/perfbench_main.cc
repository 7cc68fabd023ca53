// perfbench_load — the benchmark's load generator and traced host.
//
//   perfbench_load gen-data --out DIR
//       writes the benchmark dataset (SaveDataset layout)
//   perfbench_load drive --workload W --seed S --seconds T --data DIR
//                        --server-port P --replica-port R --pids A,B
//       drives a running simgraph_served + simgraph_shard_server pair
//   perfbench_load traced --workload W --seed S --seconds T --data DIR
//       hosts the same deployment in this process and reports per-layer
//       metrics next to its own end-to-end numbers; --trace-out PATH
//       writes its spans as a Chrome trace when the run ends
//
// Each command prints one JSON object on stdout (see report.h); run.py
// turns them into the benchmark's result line.

#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "drive.h"
#include "report.h"
#include "traced.h"
#include "workload.h"

namespace perfbench {
namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) == 0) flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

int GenData(const std::map<std::string, std::string>& flags) {
  const simgraph::Dataset dataset =
      simgraph::GenerateDataset(BenchDatasetConfig());
  const simgraph::Status s = simgraph::SaveDataset(dataset, flags.at("out"));
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "perfbench: dataset: %d users, %lld retweets\n",
               dataset.num_users(),
               static_cast<long long>(dataset.num_retweets()));
  return 0;
}

bool LoadPlan(const std::map<std::string, std::string>& flags,
              simgraph::Dataset* dataset, Plan* plan, double* load_s) {
  WorkloadSpec spec;
  if (!LookupWorkload(flags.at("workload"), &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", flags.at("workload").c_str());
    return false;
  }
  const double t0 = Now();
  simgraph::StatusOr<simgraph::Dataset> loaded =
      simgraph::LoadDataset(flags.at("data"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return false;
  }
  *dataset = *std::move(loaded);
  if (load_s != nullptr) *load_s = Now() - t0;
  *plan = MakePlan(spec, std::stoull(flags.at("seed")), *dataset,
                   std::stod(flags.at("seconds")));
  return true;
}

int DriveProcesses(const std::map<std::string, std::string>& flags) {
  simgraph::Dataset dataset;
  Plan plan;
  if (!LoadPlan(flags, &dataset, &plan, nullptr)) return 2;
  Endpoints endpoints;
  endpoints.server_port =
      static_cast<uint16_t>(std::stoi(flags.at("server-port")));
  endpoints.replica_port =
      static_cast<uint16_t>(std::stoi(flags.at("replica-port")));
  std::stringstream pids(flags.at("pids"));
  for (std::string pid; std::getline(pids, pid, ',');) {
    endpoints.pids.push_back(std::stoi(pid));
  }
  const DriveResult result = Drive(plan, endpoints, [](const char*) {});
  Report report;
  AddEndToEnd(plan, result, "", &report);
  report.Print(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_load gen-data|drive|traced ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  try {
    if (command == "gen-data") return GenData(flags);
    if (command == "drive") return DriveProcesses(flags);
    if (command == "traced") {
      simgraph::Dataset dataset;
      Plan plan;
      double load_s = 0.0;
      if (!LoadPlan(flags, &dataset, &plan, &load_s)) return 2;
      const auto out = flags.find("trace-out");
      return RunTraced(plan, dataset, load_s,
                       out == flags.end() ? "" : out->second);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad flags: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 2;
}
