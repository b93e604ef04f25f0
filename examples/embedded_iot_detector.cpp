// Embedded/IoT deployment study: the thesis's motivating scenario.
//
// Resource-constrained devices cannot afford an MLP's multipliers, so this
// example walks the full embedded flow: reduce 16 counters to the 4 most
// discriminative via PCA, train the cheap rule learners, compile every
// candidate to a netlist and read its synthesis report, verify fixed-point
// accuracy, and pick the detector with the best accuracy/area.
//
//   $ ./embedded_iot_detector
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/dataset_builder.hpp"
#include "core/detector.hpp"
#include "core/feature_reduction.hpp"
#include "hw/compile.hpp"
#include "hw/fixed_point_eval.hpp"
#include "hw/verilog_backend.hpp"
#include "ml/registry.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace hmd;

  // Collect the dataset (10% scale keeps this example under a minute).
  core::PipelineConfig config = core::PipelineConfig::quick(0.10, 8);
  core::DatasetBuilder builder(config);
  std::cout << "collecting HPC dataset...\n";
  const ml::Dataset multiclass = builder.build_multiclass_dataset();
  const ml::Dataset binary = core::DatasetBuilder::to_binary(multiclass);

  Rng rng(7);
  auto [mtrain, mtest] = multiclass.stratified_split(0.7, rng);
  Rng rng2(8);
  auto [btrain, btest] = binary.stratified_split(0.7, rng2);

  // PCA feature reduction on the training data: 16 -> 4 counters means the
  // runtime monitor needs only half a multiplex group — no multiplexing at
  // all on the 8-register PMU.
  const core::FeatureReducer reducer(mtrain);
  const core::FeatureSet top4 = reducer.binary_top_features(4);
  std::cout << "PCA-selected counters: " << join(top4.names, ", ") << "\n\n";

  // Candidate detectors, cheapest first.
  const core::BinaryStudy study(btrain, btest);
  TextTable table("embedded detector candidates (4 HPC features)");
  table.set_header({"detector", "accuracy %", "area (slices)", "DSPs",
                    "latency us", "power mW", "fixed-point acc %",
                    "acc/area"});
  for (const std::string scheme :
       {"OneR", "DecisionStump", "JRip", "J48", "SVM", "MLR", "MLP"}) {
    const auto rows = study.run({scheme}, &top4);
    const core::BinaryStudyRow& row = rows.front();
    // Re-check accuracy with Q16.16-quantized inputs (the FPGA datapath).
    auto clf = ml::make_classifier(scheme);
    clf->train(btrain.project(top4.indices));
    const double fixed_acc =
        hw::evaluate_fixed_point(*clf, btest.project(top4.indices))
            .accuracy();
    table.add_row({scheme, format("%.2f", row.accuracy() * 100.0),
                   format("%.0f", row.synthesis.area_slices()),
                   std::to_string(row.synthesis.resources.dsps),
                   format("%.2f", row.synthesis.latency_us()),
                   format("%.3f", row.synthesis.total_power_mw()),
                   format("%.2f", fixed_acc * 100.0),
                   format("%.4f", row.accuracy_per_slice())});
  }
  table.print(std::cout);

  std::cout << "\nAt a 10 ms sampling period the detector runs 100 "
               "inferences/s;\neven the largest candidate finishes each "
               "inference in well under a window.\n";

  // Emit the deployable RTL for the efficiency winner (JRip on 4
  // counters): this is the artifact an FPGA flow would synthesize.
  auto winner = ml::make_classifier("JRip");
  winner->train(btrain.project(top4.indices));
  const std::string rtl =
      hw::compile(*winner, {.num_features = top4.indices.size(),
                            .module_name = "hmd_jrip_detector"})
          .emit(hw::VerilogBackend());
  const char* rtl_path = "hmd_jrip_detector.v";
  {
    std::ofstream out(rtl_path);
    out << rtl;
  }
  std::cout << "\nwrote " << rtl_path << " (" << rtl.size()
            << " bytes of Verilog); first lines:\n";
  std::istringstream lines(rtl);
  std::string line;
  for (int i = 0; i < 12 && std::getline(lines, line); ++i)
    std::cout << "  | " << line << '\n';
  return 0;
}
