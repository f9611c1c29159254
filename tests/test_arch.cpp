#include <gtest/gtest.h>

#include "arch/isa.hpp"
#include "arch/machine.hpp"
#include "arch/program.hpp"
#include "arch/text.hpp"

namespace plim::arch {
namespace {

TEST(Isa, Rm3TruthTable) {
  // Z ← ⟨A B̄ Z⟩, exhaustively.
  for (unsigned v = 0; v < 8; ++v) {
    const bool a = v & 1;
    const bool b = (v >> 1) & 1;
    const bool z = (v >> 2) & 1;
    const bool nb = !b;
    const bool expected = (a && nb) || (a && z) || (nb && z);
    EXPECT_EQ(rm3(a, b, z), expected) << v;
  }
}

TEST(Isa, Rm3WordsMatchesScalar) {
  const std::uint64_t a = 0x00ff00ff00ff00ffULL;
  const std::uint64_t b = 0x0f0f0f0f0f0f0f0fULL;
  const std::uint64_t z = 0x3333333333333333ULL;
  const std::uint64_t r = rm3_words(a, b, z);
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_EQ(((r >> bit) & 1) != 0,
              rm3(((a >> bit) & 1) != 0, ((b >> bit) & 1) != 0,
                  ((z >> bit) & 1) != 0))
        << bit;
  }
}

TEST(Isa, OperandAccessors) {
  const auto c = Operand::constant(true);
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(c.constant_value());
  const auto i = Operand::input(4);
  EXPECT_TRUE(i.is_input());
  EXPECT_EQ(i.address(), 4u);
  const auto r = Operand::rram(9);
  EXPECT_TRUE(r.is_rram());
  EXPECT_EQ(r.address(), 9u);
  EXPECT_EQ(c, Operand::constant(true));
  EXPECT_NE(c, Operand::constant(false));
  EXPECT_NE(i, r);
}

TEST(Program, TracksRramCount) {
  Program p;
  p.add_input("a");
  p.append(Operand::constant(false), Operand::constant(true), 0);
  EXPECT_EQ(p.num_rrams(), 1u);
  p.append(Operand::rram(4), Operand::input(0), 2);
  EXPECT_EQ(p.num_rrams(), 5u);
  p.add_output("f", 2);
  EXPECT_EQ(p.num_outputs(), 1u);
  EXPECT_EQ(p.output_cell(0), 2u);
  EXPECT_TRUE(p.validate().empty());
}

TEST(Program, ValidateCatchesBadInput) {
  Program p;
  p.append(Operand::input(3), Operand::constant(false), 0);
  EXPECT_FALSE(p.validate().empty());
}

/// The paper's first example program (Fig. 3(a), right): computes
/// N2 = ⟨i4 ī2 N1⟩ with N1 = ⟨ī1 i2 i3⟩ in four instructions, one cell.
Program motivating_program() {
  Program p;
  const auto i1 = p.add_input("i1");
  const auto i2 = p.add_input("i2");
  const auto i3 = p.add_input("i3");
  const auto i4 = p.add_input("i4");
  p.append(Operand::constant(false), Operand::constant(true), 0);  // X1 ← 0
  p.append(Operand::input(i3), Operand::constant(false), 0);       // X1 ← i3
  p.append(Operand::input(i2), Operand::input(i1), 0);             // X1 ← N1
  p.append(Operand::input(i4), Operand::input(i2), 0);             // X1 ← N2
  p.add_output("f", 0);
  return p;
}

TEST(Machine, ExecutesMotivatingProgram) {
  const auto p = motivating_program();
  Machine machine;
  for (unsigned v = 0; v < 16; ++v) {
    const bool i1 = v & 1;
    const bool i2 = (v >> 1) & 1;
    const bool i3 = (v >> 2) & 1;
    const bool i4 = (v >> 3) & 1;
    const auto maj = [](bool a, bool b, bool c) {
      return (a && b) || (a && c) || (b && c);
    };
    const bool n1 = maj(!i1, i2, i3);
    const bool expected = maj(i4, !i2, n1);
    const auto out = machine.run(p, {i1, i2, i3, i4});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], expected) << v;
  }
}

TEST(Machine, InitialStateDoesNotLeakIntoInitializedCells) {
  const auto p = motivating_program();
  Machine machine;
  const auto out0 = machine.run(p, {true, false, true, false},
                                std::vector<bool>{false});
  const auto out1 = machine.run(p, {true, false, true, false},
                                std::vector<bool>{true});
  EXPECT_EQ(out0, out1);  // first instruction initializes the cell
}

TEST(Machine, CountsWritesAndCycles) {
  const auto p = motivating_program();
  Machine machine;
  (void)machine.run(p, {false, false, false, false});
  EXPECT_EQ(machine.instructions_executed(), 4u);
  EXPECT_EQ(machine.cycles(), 4u * Machine::phases_per_instruction);
  ASSERT_EQ(machine.write_counts().size(), 1u);
  EXPECT_EQ(machine.write_counts()[0], 4u);
  EXPECT_EQ(machine.endurance().max, 4u);
  machine.reset_counters();
  EXPECT_EQ(machine.instructions_executed(), 0u);
}

TEST(Machine, RejectsWrongInputCount) {
  const auto p = motivating_program();
  Machine machine;
  EXPECT_THROW((void)machine.run(p, {true}), std::invalid_argument);
}

TEST(Text, RendersPaperSyntax) {
  const auto p = motivating_program();
  const auto text = to_text(p);
  EXPECT_NE(text.find("01: 0, 1, @X1"), std::string::npos);
  EXPECT_NE(text.find("02: i3, 0, @X1"), std::string::npos);
  EXPECT_NE(text.find("03: i2, i1, @X1"), std::string::npos);
  EXPECT_NE(text.find("04: i4, i2, @X1"), std::string::npos);
  EXPECT_NE(text.find("# output f @X1"), std::string::npos);
}

TEST(Text, RoundTrips) {
  const auto p = motivating_program();
  const auto q = parse_program(to_text(p));
  ASSERT_EQ(q.num_instructions(), p.num_instructions());
  for (std::size_t i = 0; i < p.num_instructions(); ++i) {
    EXPECT_EQ(q[i], p[i]) << "instruction " << i;
  }
  EXPECT_EQ(q.num_inputs(), p.num_inputs());
  EXPECT_EQ(q.num_outputs(), p.num_outputs());
  EXPECT_EQ(q.output_cell(0), p.output_cell(0));
}

TEST(Text, ParseRejectsMalformed) {
  EXPECT_THROW((void)parse_program("01: 0, 1"), std::runtime_error);
  EXPECT_THROW((void)parse_program("01: 0, 1, unknown"), std::runtime_error);
  EXPECT_THROW((void)parse_program("01: 0, 1, @X0"), std::runtime_error);
  // Numbers past 32 bits are rejected, not wrapped onto a small cell.
  EXPECT_THROW((void)parse_program("01: 0, 1, @X4294967297"),
               std::runtime_error);
  EXPECT_THROW((void)parse_program("01: 0, 1, @X1\n# output f @X0"),
               std::runtime_error);
}

TEST(Text, ParseU32IsChecked) {
  EXPECT_EQ(parse_u32("0"), 0u);
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
  EXPECT_THROW((void)parse_u32("4294967296"), std::runtime_error);
  EXPECT_THROW((void)parse_u32(""), std::runtime_error);
  EXPECT_THROW((void)parse_u32("-1"), std::runtime_error);
  EXPECT_THROW((void)parse_u32("12x"), std::runtime_error);
}

}  // namespace
}  // namespace plim::arch
