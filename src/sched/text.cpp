#include "sched/text.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <vector>

#include "arch/text.hpp"

namespace plim::sched {

namespace {

/// Sync phase letters: f(etch)=0, a=read-A=1, b=read-B=2, w(rite)=3.
constexpr std::string_view kPhaseLetters = "fabw";

}  // namespace

using arch::parse_u32;
using arch::trim;

void write_text(const ParallelProgram& program, std::ostream& os) {
  os << "# parallel banks " << program.num_banks() << '\n';
  if (program.bus_width() > 0) {
    os << "# bus " << program.bus_width() << '\n';
  }
  std::vector<std::string> input_names;
  input_names.reserve(program.num_inputs());
  for (std::uint32_t i = 0; i < program.num_inputs(); ++i) {
    os << "# input " << i << ' ' << program.input_name(i) << '\n';
    input_names.push_back(program.input_name(i));
  }
  for (std::uint32_t b = 0; b < program.num_banks(); ++b) {
    const auto [begin, end] = program.bank_range(b);
    if (begin == end) {
      os << "# bank " << b << " empty\n";
    } else {
      os << "# bank " << b << " @X" << (begin + 1) << "..@X" << end << '\n';
    }
  }
  const int width = program.num_steps() >= 100 ? 0 : 2;
  for (std::uint32_t s = 0; s < program.num_steps(); ++s) {
    std::ostringstream num_os;
    num_os << (s + 1);
    auto num = num_os.str();
    if (width > 0 && num.size() < static_cast<std::size_t>(width)) {
      num.insert(0, static_cast<std::size_t>(width) - num.size(), '0');
    }
    os << num << ':';
    bool first = true;
    for (const auto& slot : program.step(s)) {
      os << (first ? " " : " | ") << 'b' << slot.bank
         << (slot.is_transfer ? "*: " : ": ");
      first = false;
      arch::print_operand(os, slot.instr.a, input_names);
      os << ", ";
      arch::print_operand(os, slot.instr.b, input_names);
      os << ", @X" << (slot.instr.z + 1);
    }
    os << '\n';
  }
  // The suffix pins the sync endpoint to a phase of the op's 4-phase
  // cycle.
  for (std::uint32_t i = 0; i < program.sync_edges().size(); ++i) {
    const auto& e = program.sync_edges()[i];
    os << "# sync t" << (i + 1) << ": b" << e.from_bank << '@'
       << (e.from_pos + 1) << '.' << kPhaseLetters[e.from_phase & 3]
       << " -> b" << e.to_bank << '@' << (e.to_pos + 1) << '.'
       << kPhaseLetters[e.to_phase & 3] << '\n';
  }
  for (std::uint32_t i = 0; i < program.num_outputs(); ++i) {
    os << "# output " << program.output_name(i) << " @X"
       << (program.output_cell(i) + 1) << '\n';
  }
}

std::string to_text(const ParallelProgram& program) {
  std::ostringstream os;
  write_text(program, os);
  return os.str();
}

ParallelProgram parse_parallel_program(const std::string& text) {
  ParallelProgram p;
  std::map<std::string, std::uint32_t> inputs;
  bool saw_banks = false;
  std::uint32_t highest_end = 0;  // anchors empty banks between neighbours
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    line = trim(line);
    if (line.empty()) {
      continue;
    }
    if (line.rfind("# parallel banks ", 0) == 0) {
      const auto banks = parse_u32(line.substr(17));
      if (banks == 0) {
        throw std::runtime_error("parallel program needs at least one bank");
      }
      if (banks > kMaxBanks) {
        throw std::runtime_error("parallel program declares " +
                                 std::to_string(banks) +
                                 " banks; the maximum is " +
                                 std::to_string(kMaxBanks));
      }
      p = ParallelProgram(banks);
      for (std::uint32_t b = 0; b < banks; ++b) {
        p.set_bank_range(b, 0, 0);
      }
      saw_banks = true;
      continue;
    }
    if (line.rfind("# bus ", 0) == 0) {
      if (!saw_banks) {
        throw std::runtime_error("bus width before '# parallel banks'");
      }
      const auto width = parse_u32(line.substr(6));
      if (width == 0) {
        throw std::runtime_error("declared bus width must be positive");
      }
      p.set_bus_width(width);
      continue;
    }
    if (line.rfind("# input ", 0) == 0) {
      std::istringstream ls(line.substr(8));
      std::uint32_t index = 0;
      std::string name;
      ls >> index >> name;
      if (name.empty()) {
        throw std::runtime_error("malformed input declaration: " + line);
      }
      if (p.add_input(name) != index) {
        throw std::runtime_error("non-contiguous input indices");
      }
      inputs.emplace(name, index);
      continue;
    }
    if (line.rfind("# bank ", 0) == 0) {
      if (!saw_banks) {
        throw std::runtime_error("bank range before '# parallel banks'");
      }
      std::istringstream ls(line.substr(7));
      std::uint32_t bank = 0;
      std::string range;
      ls >> bank >> range;
      if (bank >= p.num_banks()) {
        throw std::runtime_error("bank index out of range: " + line);
      }
      if (range == "empty") {
        // An empty bank owns no cells; anchor it after the cells declared
        // so far so that validate()'s monotone-range check still holds.
        p.set_bank_range(bank, highest_end, highest_end);
        continue;
      }
      const auto dots = range.find("..");
      if (range.rfind("@X", 0) != 0 || dots == std::string::npos ||
          range.compare(dots + 2, 2, "@X") != 0) {
        throw std::runtime_error("malformed bank range: " + line);
      }
      const auto begin = parse_u32(range.substr(2, dots - 2));
      const auto end = parse_u32(range.substr(dots + 4));
      if (begin == 0 || end < begin) {
        throw std::runtime_error("malformed bank range: " + line);
      }
      p.set_bank_range(bank, begin - 1, end);
      highest_end = std::max(highest_end, end);
      continue;
    }
    if (line.rfind("# sync ", 0) == 0) {
      if (!saw_banks) {
        throw std::runtime_error("sync token before '# parallel banks'");
      }
      // "t<id>: b<f>@<p>.x -> b<t>@<q>.x" (1-based stream positions;
      // phase letter x in {f, a, b, w} = phases 0..3).
      const auto rest = trim(line.substr(7));
      const auto colon = rest.find(':');
      if (rest.empty() || rest[0] != 't' || colon == std::string::npos) {
        throw std::runtime_error("malformed sync token: " + line);
      }
      const auto id = parse_u32(rest.substr(1, colon - 1));
      if (id != p.sync_edges().size() + 1) {
        throw std::runtime_error(
            "unmatched sync token: expected t" +
            std::to_string(p.sync_edges().size() + 1) + " in line: " + line);
      }
      const auto body = trim(rest.substr(colon + 1));
      const auto arrow = body.find("->");
      if (arrow == std::string::npos) {
        throw std::runtime_error(
            "unmatched sync token (missing signal -> wait pair): " + line);
      }
      const auto endpoint = [&](std::string s) {
        s = trim(s);
        const auto at = s.find('@');
        if (s.size() < 4 || s[0] != 'b' || at == std::string::npos ||
            at < 2) {
          throw std::runtime_error("malformed sync endpoint in line: " + line);
        }
        const auto dot = s.find('.', at);
        const auto phase = dot == std::string::npos || dot + 2 != s.size()
                               ? std::string::npos
                               : kPhaseLetters.find(s.back());
        if (phase == std::string::npos) {
          throw std::runtime_error("malformed sync phase (expected one of"
                                   " .f .a .b .w) in line: " + line);
        }
        const auto bank = parse_u32(s.substr(1, at - 1));
        const auto pos = parse_u32(s.substr(at + 1, dot - at - 1));
        if (pos == 0) {
          throw std::runtime_error("sync positions are 1-based: " + line);
        }
        return std::make_tuple(bank, pos - 1,
                               static_cast<std::uint32_t>(phase));
      };
      const auto [fb, fp, fph] = endpoint(body.substr(0, arrow));
      const auto [tb, tp, tph] = endpoint(body.substr(arrow + 2));
      p.add_sync({fb, fp, tb, tp, fph, tph});
      continue;
    }
    if (line.rfind("# output ", 0) == 0) {
      std::istringstream ls(line.substr(9));
      std::string name;
      std::string cell;
      ls >> name >> cell;
      if (cell.size() < 3 || cell.rfind("@X", 0) != 0) {
        throw std::runtime_error("malformed output declaration: " + line);
      }
      p.add_output(name, arch::parse_operand(cell, inputs).address());
      continue;
    }
    if (line[0] == '#') {
      continue;  // other comments
    }
    if (!saw_banks) {
      throw std::runtime_error("step line before '# parallel banks'");
    }
    // "NN: b<k>[*]: a, b, @Xz | b<k>[*]: a, b, @Xz | ..."
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("missing step counter in line: " + line);
    }
    p.begin_step();
    std::string rest = line.substr(colon + 1);
    std::size_t pos = 0;
    while (pos < rest.size()) {
      auto bar = rest.find('|', pos);
      if (bar == std::string::npos) {
        bar = rest.size();
      }
      const auto part = trim(rest.substr(pos, bar - pos));
      pos = bar + 1;
      if (part.empty()) {
        throw std::runtime_error("empty slot in line: " + line);
      }
      const auto slot_colon = part.find(':');
      if (part[0] != 'b' || slot_colon == std::string::npos) {
        throw std::runtime_error("malformed bank tag in line: " + line);
      }
      auto tag = part.substr(1, slot_colon - 1);
      bool is_transfer = false;
      if (!tag.empty() && tag.back() == '*') {
        is_transfer = true;
        tag.pop_back();
      }
      if (tag.empty()) {
        throw std::runtime_error("malformed bank tag in line: " + line);
      }
      const auto bank = parse_u32(tag);
      std::string body = part.substr(slot_colon + 1);
      std::array<std::string, 3> tokens;
      std::size_t tpos = 0;
      for (int t = 0; t < 3; ++t) {
        const auto comma = body.find(',', tpos);
        const auto end = (t == 2) ? body.size() : comma;
        if (t < 2 && comma == std::string::npos) {
          throw std::runtime_error("expected three operands in slot: " + part);
        }
        tokens[t] = trim(body.substr(tpos, end - tpos));
        tpos = (t == 2) ? end : comma + 1;
      }
      const auto a = arch::parse_operand(tokens[0], inputs);
      const auto b = arch::parse_operand(tokens[1], inputs);
      const auto z = arch::parse_operand(tokens[2], inputs);
      if (!z.is_rram()) {
        throw std::runtime_error("destination must be an RRAM cell: " + part);
      }
      p.add_slot({bank, arch::Instruction{a, b, z.address()}, is_transfer});
    }
  }
  if (!saw_banks) {
    throw std::runtime_error("missing '# parallel banks' header");
  }
  if (const auto err = p.validate(); !err.empty()) {
    throw std::runtime_error("invalid parallel program: " + err);
  }
  return p;
}

}  // namespace plim::sched
