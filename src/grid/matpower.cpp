#include "grid/matpower.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"

namespace gridadmm::grid {

namespace {

/// Strips MATLAB comments (% to end of line) from the case text.
std::string strip_comments(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool in_comment = false;
  for (const char ch : text) {
    if (ch == '%') in_comment = true;
    if (ch == '\n') in_comment = false;
    if (!in_comment) out.push_back(ch);
  }
  return out;
}

/// Parses one numeric token, accepting Inf/-Inf and rejecting NaN (which
/// std::stod accepts).
double parse_number(const std::string& token) {
  if (token == "Inf" || token == "inf") return std::numeric_limits<double>::infinity();
  if (token == "-Inf" || token == "-inf") return -std::numeric_limits<double>::infinity();
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw ParseError("matpower: bad numeric token '" + token + "'");
  }
  if (pos != token.size() || std::isnan(value)) {
    throw ParseError("matpower: bad numeric token '" + token + "'");
  }
  return value;
}

/// Reads an integer field (ids, types, counts): it must be a finite whole
/// number that fits an int, so the cast below is defined and no fractional
/// bus number silently truncates onto another bus.
int integer_field(double value, const char* what) {
  if (!std::isfinite(value) || value != std::trunc(value) ||
      value < static_cast<double>(std::numeric_limits<int>::min()) ||
      value > static_cast<double>(std::numeric_limits<int>::max())) {
    throw ParseError(std::string("matpower: ") + what + " must be an integer");
  }
  return static_cast<int>(value);
}

using Matrix = std::vector<std::vector<double>>;

/// Extracts `mpc.<field> = [ rows ];` as a numeric matrix. Returns empty if
/// the field is absent.
Matrix extract_matrix(const std::string& text, const std::string& field) {
  const std::string key = "mpc." + field;
  std::size_t pos = 0;
  while (true) {
    pos = text.find(key, pos);
    if (pos == std::string::npos) return {};
    // Must be followed (modulo spaces) by '='.
    std::size_t q = pos + key.size();
    while (q < text.size() && (text[q] == ' ' || text[q] == '\t')) ++q;
    if (q < text.size() && text[q] == '=') break;
    pos += key.size();
  }
  const std::size_t open = text.find('[', pos);
  if (open == std::string::npos) throw ParseError("matpower: missing '[' for " + field);
  const std::size_t close = text.find(']', open);
  if (close == std::string::npos) throw ParseError("matpower: missing ']' for " + field);
  const std::string body = text.substr(open + 1, close - open - 1);

  Matrix rows;
  std::vector<double> current;
  std::string token;
  auto flush_token = [&] {
    if (!token.empty()) {
      current.push_back(parse_number(token));
      token.clear();
    }
  };
  auto flush_row = [&] {
    flush_token();
    if (!current.empty()) {
      rows.push_back(current);
      current.clear();
    }
  };
  for (const char ch : body) {
    if (ch == ';' || ch == '\n') {
      flush_row();
    } else if (ch == ' ' || ch == '\t' || ch == ',' || ch == '\r') {
      flush_token();
    } else {
      token.push_back(ch);
    }
  }
  flush_row();
  return rows;
}

/// Extracts a scalar `mpc.<field> = value;`.
double extract_scalar(const std::string& text, const std::string& field, double fallback) {
  const std::string key = "mpc." + field;
  std::size_t pos = text.find(key);
  if (pos == std::string::npos) return fallback;
  pos = text.find('=', pos);
  if (pos == std::string::npos) return fallback;
  std::size_t end = text.find(';', pos);
  if (end == std::string::npos) end = text.size();
  std::string token = text.substr(pos + 1, end - pos - 1);
  // Trim whitespace.
  const auto first = token.find_first_not_of(" \t\r\n");
  const auto last = token.find_last_not_of(" \t\r\n");
  if (first == std::string::npos) return fallback;
  return parse_number(token.substr(first, last - first + 1));
}

}  // namespace

Network parse_matpower(const std::string& raw_text, const std::string& name) {
  const std::string text = strip_comments(raw_text);
  Network net;
  net.name = name;
  net.base_mva = extract_scalar(text, "baseMVA", 100.0);

  const Matrix bus = extract_matrix(text, "bus");
  const Matrix gen = extract_matrix(text, "gen");
  const Matrix branch = extract_matrix(text, "branch");
  const Matrix gencost = extract_matrix(text, "gencost");
  if (bus.empty()) throw ParseError("matpower: no bus data in case " + name);
  if (gen.empty()) throw ParseError("matpower: no generator data in case " + name);
  if (branch.empty()) throw ParseError("matpower: no branch data in case " + name);

  std::map<int, int> bus_index;  // external id -> internal index
  for (const auto& row : bus) {
    if (row.size() < 13) throw ParseError("matpower: bus row needs 13 columns");
    Bus b;
    b.id = integer_field(row[0], "bus id");
    const int type = integer_field(row[1], "bus type");
    if (type < static_cast<int>(BusType::kPQ) || type > static_cast<int>(BusType::kIsolated)) {
      throw ParseError("matpower: bus type must be 1-4");
    }
    b.type = static_cast<BusType>(type);
    b.pd = row[2];
    b.qd = row[3];
    b.gs = row[4];
    b.bs = row[5];
    b.vm0 = row[7];
    b.va0 = row[8] * M_PI / 180.0;
    b.vmax = row[11];
    b.vmin = row[12];
    if (bus_index.count(b.id) != 0) throw ParseError("matpower: duplicate bus id");
    bus_index[b.id] = static_cast<int>(net.buses.size());
    net.buses.push_back(b);
  }

  std::size_t dropped_gens = 0;
  std::vector<int> gen_source_row;  // surviving generator -> original row (for gencost)
  for (std::size_t i = 0; i < gen.size(); ++i) {
    const auto& row = gen[i];
    if (row.size() < 10) throw ParseError("matpower: gen row needs >= 10 columns");
    if (row[7] <= 0.0) {  // GEN_STATUS
      ++dropped_gens;
      continue;
    }
    Generator g;
    const auto it = bus_index.find(integer_field(row[0], "generator bus"));
    if (it == bus_index.end()) throw ParseError("matpower: generator at unknown bus");
    g.bus = it->second;
    g.pg0 = row[1];
    g.qg0 = row[2];
    g.qmax = row[3];
    g.qmin = row[4];
    g.pmax = row[8];
    g.pmin = row[9];
    if (row.size() >= 17) g.ramp = row[16];  // RAMP_AGC
    gen_source_row.push_back(static_cast<int>(i));
    net.generators.push_back(g);
  }
  if (dropped_gens > 0) log::debug("matpower ", name, ": dropped ", dropped_gens, " offline generators");

  std::size_t dropped_branches = 0;
  for (const auto& row : branch) {
    if (row.size() < 11) throw ParseError("matpower: branch row needs >= 11 columns");
    if (row[10] <= 0.0) {  // BR_STATUS
      ++dropped_branches;
      continue;
    }
    Branch br;
    const auto itf = bus_index.find(integer_field(row[0], "branch from-bus"));
    const auto itt = bus_index.find(integer_field(row[1], "branch to-bus"));
    if (itf == bus_index.end() || itt == bus_index.end()) {
      throw ParseError("matpower: branch endpoint at unknown bus");
    }
    br.from = itf->second;
    br.to = itt->second;
    br.r = row[2];
    br.x = row[3];
    br.b = row[4];
    br.rate = row[5];  // RATE_A; 0 = unlimited
    br.tap = row[8];
    br.shift = row[9];
    net.branches.push_back(br);
  }
  if (dropped_branches > 0) {
    log::debug("matpower ", name, ": dropped ", dropped_branches, " offline branches");
  }

  if (!gencost.empty()) {
    if (gencost.size() < gen.size()) throw ParseError("matpower: gencost rows < gen rows");
    for (std::size_t g = 0; g < net.generators.size(); ++g) {
      const auto& row = gencost[static_cast<std::size_t>(gen_source_row[g])];
      if (row.size() < 4) throw ParseError("matpower: gencost row too short");
      if (integer_field(row[0], "gencost model") != 2) {
        throw ParseError("matpower: only polynomial gencost (model 2) is supported");
      }
      const int ncost = integer_field(row[3], "gencost ncost");
      if (ncost < 1) throw ParseError("matpower: gencost ncost must be at least 1");
      if (row.size() < 4 + static_cast<std::size_t>(ncost)) {
        throw ParseError("matpower: gencost coefficients missing");
      }
      auto& gg = net.generators[g];
      gg.c2 = gg.c1 = gg.c0 = 0.0;
      // Coefficients are highest order first.
      if (ncost >= 3) {
        gg.c2 = row[4 + ncost - 3];
        gg.c1 = row[4 + ncost - 2];
        gg.c0 = row[4 + ncost - 1];
        if (ncost > 3) {
          for (int k = 0; k < ncost - 3; ++k) {
            if (row[4 + k] != 0.0) {
              throw ParseError("matpower: gencost degree > 2 not supported");
            }
          }
        }
      } else if (ncost == 2) {
        gg.c1 = row[4];
        gg.c0 = row[5];
      } else if (ncost == 1) {
        gg.c0 = row[4];
      }
    }
  }
  return net;
}

Network load_matpower_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("matpower: cannot open file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // Derive a case name from the file name.
  std::string name = path;
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const auto dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return parse_matpower(buffer.str(), name);
}

}  // namespace gridadmm::grid

namespace gridadmm::grid {

namespace {
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}
}  // namespace

std::string write_matpower(const Network& net) {
  // Finalized networks store per-unit data; convert back to MATPOWER units.
  const double base = net.base_mva;
  const bool pu = net.finalized();
  const double power = pu ? base : 1.0;
  const double angle = pu ? 180.0 / M_PI : 1.0;

  std::ostringstream os;
  os << "function mpc = " << (net.name.empty() ? "exported" : net.name) << "\n";
  os << "mpc.version = '2';\n";
  os << "mpc.baseMVA = " << fmt(base) << ";\n";

  os << "mpc.bus = [\n";
  for (const auto& bus : net.buses) {
    os << '\t' << bus.id << '\t' << static_cast<int>(bus.type) << '\t' << fmt(bus.pd * power)
       << '\t' << fmt(bus.qd * power) << '\t' << fmt(bus.gs * power) << '\t'
       << fmt(bus.bs * power) << "\t1\t" << fmt(bus.vm0) << '\t' << fmt(bus.va0 * angle)
       << "\t0\t1\t" << fmt(bus.vmax) << '\t' << fmt(bus.vmin) << ";\n";
  }
  os << "];\n";

  os << "mpc.gen = [\n";
  for (const auto& gen : net.generators) {
    os << '\t' << net.buses[gen.bus].id << '\t' << fmt(gen.pg0 * power) << '\t'
       << fmt(gen.qg0 * power) << '\t' << fmt(gen.qmax * power) << '\t' << fmt(gen.qmin * power)
       << "\t1\t" << fmt(base) << '\t' << (gen.on ? 1 : 0) << '\t' << fmt(gen.pmax * power)
       << '\t' << fmt(gen.pmin * power) << "\t0\t0\t0\t0\t0\t0\t" << fmt(gen.ramp * power)
       << "\t0\t0\t0\t0;\n";
  }
  os << "];\n";

  os << "mpc.branch = [\n";
  for (const auto& branch : net.branches) {
    const double rate = branch.rate * power;
    os << '\t' << net.buses[branch.from].id << '\t' << net.buses[branch.to].id << '\t'
       << fmt(branch.r) << '\t' << fmt(branch.x) << '\t' << fmt(branch.b) << '\t' << fmt(rate)
       << '\t' << fmt(rate) << '\t' << fmt(rate) << '\t'
       << fmt(pu && branch.tap == 1.0 ? 0.0 : branch.tap) << '\t' << fmt(branch.shift * angle)
       << '\t' << (branch.on ? 1 : 0) << "\t-360\t360;\n";
  }
  os << "];\n";

  // Costs: finalized networks fold baseMVA into c2/c1; undo for export.
  const double c2_scale = pu ? 1.0 / (base * base) : 1.0;
  const double c1_scale = pu ? 1.0 / base : 1.0;
  os << "mpc.gencost = [\n";
  for (const auto& gen : net.generators) {
    os << "\t2\t0\t0\t3\t" << fmt(gen.c2 * c2_scale) << '\t' << fmt(gen.c1 * c1_scale) << '\t'
       << fmt(gen.c0) << ";\n";
  }
  os << "];\n";
  return os.str();
}

void save_matpower_file(const Network& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ParseError("matpower: cannot write file " + path);
  out << write_matpower(net);
}

}  // namespace gridadmm::grid
