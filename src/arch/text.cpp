#include "arch/text.hpp"

#include <array>
#include <charconv>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace plim::arch {

void print_operand(std::ostream& os, Operand op,
                   const std::vector<std::string>& input_names) {
  switch (op.kind()) {
    case OperandKind::constant:
      os << (op.constant_value() ? '1' : '0');
      break;
    case OperandKind::input:
      os << input_names[op.address()];
      break;
    case OperandKind::rram:
      os << "@X" << (op.address() + 1);
      break;
  }
}

void write_text(const Program& program, std::ostream& os) {
  std::vector<std::string> input_names;
  input_names.reserve(program.num_inputs());
  for (std::uint32_t i = 0; i < program.num_inputs(); ++i) {
    os << "# input " << i << ' ' << program.input_name(i) << '\n';
    input_names.push_back(program.input_name(i));
  }
  std::size_t pc = 1;
  const int width = program.num_instructions() >= 100 ? 0 : 2;
  for (const auto& ins : program.instructions()) {
    std::ostringstream line;
    line << pc++;
    std::string num = line.str();
    if (width > 0 && num.size() < static_cast<std::size_t>(width)) {
      num.insert(0, static_cast<std::size_t>(width) - num.size(), '0');
    }
    os << num << ": ";
    print_operand(os, ins.a, input_names);
    os << ", ";
    print_operand(os, ins.b, input_names);
    os << ", @X" << (ins.z + 1) << '\n';
  }
  for (std::uint32_t i = 0; i < program.num_outputs(); ++i) {
    os << "# output " << program.output_name(i) << " @X"
       << (program.output_cell(i) + 1) << '\n';
  }
}

std::string to_text(const Program& program) {
  std::ostringstream os;
  write_text(program, os);
  return os.str();
}

Operand parse_operand(const std::string& token,
                      const std::map<std::string, std::uint32_t>& inputs) {
  if (token == "0") {
    return Operand::constant(false);
  }
  if (token == "1") {
    return Operand::constant(true);
  }
  if (token.size() > 2 && token[0] == '@' && token[1] == 'X') {
    const auto cell = parse_u32(token.substr(2));
    if (cell == 0) {
      throw std::runtime_error("RRAM cells are 1-based in text form");
    }
    return Operand::rram(cell - 1);
  }
  const auto it = inputs.find(token);
  if (it == inputs.end()) {
    throw std::runtime_error("unknown operand '" + token + "'");
  }
  return Operand::input(it->second);
}

std::uint32_t parse_u32(const std::string& token, std::uint32_t max) {
  std::uint32_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::runtime_error("number out of 32-bit range: '" + token + "'");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::runtime_error("malformed number '" + token + "'");
  }
  if (value > max) {
    throw std::runtime_error("number above " + std::to_string(max) + ": '" +
                             token + "'");
  }
  return value;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return {};
  }
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

Program parse_program(const std::string& text) {
  Program p;
  std::map<std::string, std::uint32_t> inputs;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    line = trim(line);
    if (line.empty()) {
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
      const auto got = p.add_input(name);
      if (got != index) {
        throw std::runtime_error("non-contiguous input indices");
      }
      inputs.emplace(name, index);
      continue;
    }
    if (line.rfind("# output ", 0) == 0) {
      std::istringstream ls(line.substr(9));
      std::string name;
      std::string cell;
      ls >> name >> cell;
      if (cell.size() < 3 || cell[0] != '@' || cell[1] != 'X') {
        throw std::runtime_error("malformed output declaration: " + line);
      }
      p.add_output(name, parse_operand(cell, inputs).address());
      continue;
    }
    if (line[0] == '#') {
      continue;  // other comments
    }
    // "NN: a, b, @Xz"
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("missing program counter in line: " + line);
    }
    std::string rest = line.substr(colon + 1);
    std::array<std::string, 3> tokens;
    std::size_t pos = 0;
    for (int t = 0; t < 3; ++t) {
      const auto comma = rest.find(',', pos);
      const auto end = (t == 2) ? rest.size() : comma;
      if (t < 2 && comma == std::string::npos) {
        throw std::runtime_error("expected three operands in line: " + line);
      }
      tokens[t] = trim(rest.substr(pos, end - pos));
      pos = (t == 2) ? end : comma + 1;
    }
    const Operand a = parse_operand(tokens[0], inputs);
    const Operand b = parse_operand(tokens[1], inputs);
    const Operand z = parse_operand(tokens[2], inputs);
    if (!z.is_rram()) {
      throw std::runtime_error("destination must be an RRAM cell: " + line);
    }
    p.append(a, b, z.address());
  }
  return p;
}

}  // namespace plim::arch
