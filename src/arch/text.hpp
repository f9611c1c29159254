#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "arch/program.hpp"

namespace plim::arch {

/// Renders a program in the paper's listing syntax, e.g.
///
///   01: 0, 1, @X1
///   02: 1, i3, @X1
///   03: i1, i2, @X1
///
/// Inputs print by their declared names; RRAM cells print as "@X<k>"
/// (1-based, as in the paper). A trailing comment block lists the
/// output-name → cell mapping.
[[nodiscard]] std::string to_text(const Program& program);
void write_text(const Program& program, std::ostream& os);

/// Parses the textual form back (round-trip of `to_text`). Input operands
/// must use the names declared in the "# input" header lines that
/// `to_text` emits. Throws std::runtime_error on malformed input.
[[nodiscard]] Program parse_program(const std::string& text);

// ---- listing-syntax building blocks (shared with sched/text) ---------------

/// Renders one operand: "0"/"1", the input's declared name, or "@X<k>".
void print_operand(std::ostream& os, Operand op,
                   const std::vector<std::string>& input_names);

/// Parses one operand token against the declared input-name table.
/// Throws std::runtime_error on unknown names and malformed cell refs.
[[nodiscard]] Operand parse_operand(
    const std::string& token,
    const std::map<std::string, std::uint32_t>& inputs);

/// Parses a decimal number (digits only) into 32 bits — listing numbers
/// and numeric command-line flags alike. Throws std::runtime_error when
/// `token` is malformed or exceeds `max` — a number never wraps around.
[[nodiscard]] std::uint32_t parse_u32(const std::string& token,
                                      std::uint32_t max = UINT32_MAX);

/// Strips leading/trailing listing whitespace (spaces, tabs, '\r').
[[nodiscard]] std::string trim(const std::string& s);

}  // namespace plim::arch
