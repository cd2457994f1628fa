#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "grid/cases.hpp"
#include "grid/matpower.hpp"

namespace gridadmm::grid {
namespace {

TEST(Matpower, ParsesCase9) {
  const auto net = parse_matpower(embedded_case_text("case9"), "case9");
  EXPECT_EQ(net.num_buses(), 9);
  EXPECT_EQ(net.num_generators(), 3);
  EXPECT_EQ(net.num_branches(), 9);
  EXPECT_DOUBLE_EQ(net.base_mva, 100.0);
  // Bus 5 (index 4): load 90 + j30 (still MW before finalize).
  EXPECT_DOUBLE_EQ(net.buses[4].pd, 90.0);
  EXPECT_DOUBLE_EQ(net.buses[4].qd, 30.0);
  // Generator 2 cost: 0.085 pg^2 + 1.2 pg + 600.
  EXPECT_DOUBLE_EQ(net.generators[1].c2, 0.085);
  EXPECT_DOUBLE_EQ(net.generators[1].c1, 1.2);
  EXPECT_DOUBLE_EQ(net.generators[1].c0, 600.0);
  // Branch 1-4 is the step-up transformer path with x = 0.0576.
  EXPECT_DOUBLE_EQ(net.branches[0].x, 0.0576);
  EXPECT_DOUBLE_EQ(net.branches[0].rate, 250.0);
}

TEST(Matpower, ParsesCase14WithTransformers) {
  const auto net = parse_matpower(embedded_case_text("case14"), "case14");
  EXPECT_EQ(net.num_buses(), 14);
  EXPECT_EQ(net.num_generators(), 5);
  EXPECT_EQ(net.num_branches(), 20);
  // Branch 4-7 has tap ratio 0.978.
  bool found = false;
  for (const auto& branch : net.branches) {
    if (net.buses[branch.from].id == 4 && net.buses[branch.to].id == 7) {
      EXPECT_DOUBLE_EQ(branch.tap, 0.978);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Bus 9 carries a shunt capacitor (BS = 19 MVAr).
  EXPECT_DOUBLE_EQ(net.buses[8].bs, 19.0);
}

TEST(Matpower, DropsOfflineComponents) {
  const std::string text = R"(mpc.baseMVA = 100;
mpc.bus = [
 1 3 0 0 0 0 1 1 0 345 1 1.1 0.9;
 2 1 10 5 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.gen = [
 1 0 0 100 -100 1 100 1 100 0;
 1 0 0 100 -100 1 100 0 100 0;
];
mpc.branch = [
 1 2 0.01 0.1 0 100 0 0 0 0 1 -360 360;
 1 2 0.01 0.1 0 100 0 0 0 0 0 -360 360;
];
)";
  const auto net = parse_matpower(text);
  EXPECT_EQ(net.num_generators(), 1);
  EXPECT_EQ(net.num_branches(), 1);
}

TEST(Matpower, RejectsMissingSections) {
  EXPECT_THROW(parse_matpower("mpc.baseMVA = 100;"), ParseError);
  EXPECT_THROW(parse_matpower("mpc.bus = [1 3 0 0 0 0 1 1 0 345 1 1.1 0.9;];"), ParseError);
}

TEST(Matpower, RejectsBadTokens) {
  const std::string text = R"(mpc.baseMVA = 100;
mpc.bus = [ 1 3 zero 0 0 0 1 1 0 345 1 1.1 0.9; ];
mpc.gen = [ 1 0 0 1 -1 1 100 1 1 0; ];
mpc.branch = [ 1 1 0 0.1 0 0 0 0 0 0 1; ];
)";
  EXPECT_THROW(parse_matpower(text), ParseError);
}

TEST(Matpower, RejectsNanAndNonIntegerFields) {
  // Integer fields (bus ids and types, generator buses, branch endpoints,
  // gencost model and ncost) must be finite whole numbers in range, and no
  // token may be NaN: a NaN id used to be cast to int (undefined
  // behaviour), and bus 2.7 silently became bus 2.
  const std::string valid = R"(mpc.baseMVA = 100;
mpc.bus = [
 1 3 0 0 0 0 1 1 0 345 1 1.1 0.9;
 2 1 10 5 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.gen = [ 1 0 0 100 -100 1 100 1 100 0; ];
mpc.branch = [ 1 2 0.01 0.1 0 0 0 0 0 0 1 -360 360; ];
mpc.gencost = [ 2 0 0 3 0.01 10 0; ];
)";
  ASSERT_EQ(parse_matpower(valid).num_buses(), 2);
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = valid;
    const auto pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return text.replace(pos, from.size(), to);
  };
  const std::pair<std::string, std::string> edits[] = {
      {" 2 1 10 5", " nan 1 10 5"},          // bus id NaN
      {" 2 1 10 5", " 2.7 1 10 5"},          // fractional bus id
      {" 2 1 10 5", " 2 1.5 10 5"},          // fractional bus type
      {" 2 1 10 5", " 2 7 10 5"},            // bus type out of range
      {" 2 1 10 5", " 3e10 1 10 5"},         // bus id beyond int
      {" 2 1 10 5", " 2 1 nan 5"},           // NaN load
      {"[ 1 0 0 100", "[ 1.2 0 0 100"},      // generator at bus 1.2
      {"[ 1 2 0.01", "[ 1 NaN 0.01"},        // branch endpoint NaN
      {"[ 1 2 0.01", "[ 1 inf 0.01"},        // branch endpoint Inf
      {"[ 2 0 0 3", "[ 2.5 0 0 3"},          // fractional gencost model
      {"[ 2 0 0 3", "[ 2 0 0 0"},            // ncost 0
      {"[ 2 0 0 3", "[ 2 0 0 -1"},           // ncost -1
      {"mpc.baseMVA = 100", "mpc.baseMVA = nan"},
  };
  for (const auto& [from, to] : edits) {
    EXPECT_THROW(parse_matpower(with(from, to)), ParseError) << to;
  }
}

TEST(Matpower, RejectsPiecewiseLinearCost) {
  std::string text(embedded_case_text("case9"));
  const auto pos = text.find("2\t1500");
  text.replace(pos, 1, "1");  // cost model 1 = piecewise linear
  EXPECT_THROW(parse_matpower(text), ParseError);
}

TEST(Matpower, HandlesCommentsAndInf) {
  const std::string text = R"(% leading comment
mpc.baseMVA = 100; % trailing
mpc.bus = [
 1 3 0 0 0 0 1 1 0 345 1 1.1 0.9; % ref
 2 1 10 5 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.gen = [ 1 0 0 Inf -Inf 1 100 1 100 0; ];
mpc.branch = [ 1 2 0.01 0.1 0 0 0 0 0 0 1 -360 360; ];
)";
  const auto net = parse_matpower(text);
  EXPECT_TRUE(std::isinf(net.generators[0].qmax));
}

TEST(Matpower, EmbeddedCaseNamesListed) {
  const auto names = embedded_case_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "case9"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "case14"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "case30"), names.end());
}

TEST(Matpower, UnknownEmbeddedCaseThrows) {
  EXPECT_THROW(embedded_case_text("case9999"), ParseError);
}

TEST(Matpower, WriterRoundTripsRawCase) {
  const auto original = parse_matpower(embedded_case_text("case9"), "case9");
  const auto reparsed = parse_matpower(write_matpower(original), "case9rt");
  ASSERT_EQ(reparsed.num_buses(), original.num_buses());
  ASSERT_EQ(reparsed.num_generators(), original.num_generators());
  ASSERT_EQ(reparsed.num_branches(), original.num_branches());
  for (int i = 0; i < original.num_buses(); ++i) {
    EXPECT_DOUBLE_EQ(reparsed.buses[i].pd, original.buses[i].pd);
    EXPECT_DOUBLE_EQ(reparsed.buses[i].vmax, original.buses[i].vmax);
  }
  for (int g = 0; g < original.num_generators(); ++g) {
    EXPECT_DOUBLE_EQ(reparsed.generators[g].pmax, original.generators[g].pmax);
    EXPECT_DOUBLE_EQ(reparsed.generators[g].c2, original.generators[g].c2);
    EXPECT_DOUBLE_EQ(reparsed.generators[g].c1, original.generators[g].c1);
  }
  for (int l = 0; l < original.num_branches(); ++l) {
    EXPECT_DOUBLE_EQ(reparsed.branches[l].x, original.branches[l].x);
    EXPECT_DOUBLE_EQ(reparsed.branches[l].rate, original.branches[l].rate);
  }
}

TEST(Matpower, WriterRoundTripsFinalizedCase) {
  // Finalized networks are stored per-unit; the writer must convert back so
  // the round trip lands on the same per-unit model after finalize().
  const auto original = load_embedded_case("case14");
  auto reparsed = parse_matpower(write_matpower(original), "case14rt");
  reparsed.finalize();
  for (int i = 0; i < original.num_buses(); ++i) {
    EXPECT_NEAR(reparsed.buses[i].pd, original.buses[i].pd, 1e-12);
    EXPECT_NEAR(reparsed.buses[i].bs, original.buses[i].bs, 1e-12);
  }
  for (int g = 0; g < original.num_generators(); ++g) {
    EXPECT_NEAR(reparsed.generators[g].pmax, original.generators[g].pmax, 1e-12);
    EXPECT_NEAR(reparsed.generators[g].c2, original.generators[g].c2, 1e-6);
  }
  for (int l = 0; l < original.num_branches(); ++l) {
    EXPECT_NEAR(reparsed.branches[l].tap, original.branches[l].tap, 1e-12);
    EXPECT_NEAR(reparsed.branches[l].shift, original.branches[l].shift, 1e-12);
  }
  // Same admittances implies the same OPF.
  for (int l = 0; l < original.num_branches(); ++l) {
    EXPECT_NEAR(reparsed.admittances[l].gij, original.admittances[l].gij, 1e-10);
    EXPECT_NEAR(reparsed.admittances[l].bij, original.admittances[l].bij, 1e-10);
  }
}

TEST(Matpower, SaveAndLoadFile) {
  const auto net = parse_matpower(embedded_case_text("case30"), "case30");
  const std::string path = "/tmp/gridadmm_roundtrip_case30.m";
  save_matpower_file(net, path);
  const auto loaded = load_matpower_file(path);
  EXPECT_EQ(loaded.num_buses(), 30);
  EXPECT_EQ(loaded.num_branches(), net.num_branches());
}

}  // namespace
}  // namespace gridadmm::grid
