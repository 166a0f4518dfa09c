#include "ir/verifier.h"

#include <set>

#include "support/error.h"

namespace r2r::ir {

namespace {

using support::ErrorKind;
using support::fail;

/// Where a verifier failure points ("function @f: " or "function @f:
/// block %b: "). The prefix is formatted only when a check fails, so a
/// clean module costs no string building.
class Site {
 public:
  explicit Site(const Function& fn, const BasicBlock* block = nullptr) noexcept
      : fn_(fn), block_(block) {}

  void check(bool condition, support::Literal what) const {
    if (!condition) fail(ErrorKind::kIr, prefix() + std::string(what.view()));
  }

 private:
  [[nodiscard]] std::string prefix() const {
    std::string out = "function @" + fn_.name() + ": ";
    if (block_ != nullptr) out += "block %" + block_->name() + ": ";
    return out;
  }

  const Function& fn_;
  const BasicBlock* block_;
};

void verify_function(const Module& module, const Function& fn) {
  const Site where(fn);
  if (fn.is_intrinsic()) {
    where.check(fn.blocks.empty(), "intrinsic with a body");
    return;
  }
  where.check(!fn.blocks.empty(), "no blocks");

  std::set<const BasicBlock*> own_blocks;
  for (const auto& block : fn.blocks) own_blocks.insert(block.get());

  // All instruction results defined anywhere in this function.
  std::set<const Value*> defined;
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block->instrs) defined.insert(instr.get());
  }

  for (const auto& block : fn.blocks) {
    const Site at(fn, block.get());
    at.check(!block->instrs.empty(), "empty block");
    for (std::size_t i = 0; i < block->instrs.size(); ++i) {
      const Instr& instr = *block->instrs[i];
      const bool last = (i + 1 == block->instrs.size());
      if (last) {
        at.check(instr.is_terminator(), "missing terminator");
      } else {
        at.check(!instr.is_terminator(), "terminator in the middle");
      }

      for (const Value* op : instr.operands) {
        at.check(op != nullptr, "null operand");
        if (op->kind() == Value::Kind::kInstr) {
          at.check(defined.contains(op), "operand defined in another function");
        }
      }
      for (const BasicBlock* target : instr.targets) {
        at.check(own_blocks.contains(target), "branch target outside function");
      }

      switch (instr.opcode()) {
        case Opcode::kAdd:
        case Opcode::kSub:
        case Opcode::kMul:
        case Opcode::kAnd:
        case Opcode::kOr:
        case Opcode::kXor:
        case Opcode::kShl:
        case Opcode::kLShr:
        case Opcode::kAShr:
          at.check(instr.operands.size() == 2, "binary arity");
          at.check(instr.operands[0]->type() == instr.type() &&
                       instr.operands[1]->type() == instr.type(),
                   "binary type mismatch");
          at.check(instr.type() != Type::kVoid, "void arithmetic");
          break;
        case Opcode::kICmp:
          at.check(instr.operands.size() == 2, "icmp arity");
          at.check(instr.type() == Type::kI1, "icmp must yield i1");
          at.check(instr.operands[0]->type() == instr.operands[1]->type(),
                   "icmp operand mismatch");
          break;
        case Opcode::kZExt:
        case Opcode::kSExt:
          at.check(instr.operands.size() == 1, "ext arity");
          at.check(type_bits(instr.type()) > type_bits(instr.operands[0]->type()),
                   "ext must widen");
          break;
        case Opcode::kTrunc:
          at.check(instr.operands.size() == 1, "trunc arity");
          at.check(type_bits(instr.type()) < type_bits(instr.operands[0]->type()),
                   "trunc must narrow");
          break;
        case Opcode::kSelect:
          at.check(instr.operands.size() == 3, "select arity");
          at.check(instr.operands[0]->type() == Type::kI1, "select condition must be i1");
          at.check(instr.operands[1]->type() == instr.type() &&
                       instr.operands[2]->type() == instr.type(),
                   "select type mismatch");
          break;
        case Opcode::kLoad:
          at.check(instr.operands.size() == 1, "load arity");
          at.check(instr.operands[0]->type() == Type::kI64, "load address must be i64");
          at.check(instr.type() == Type::kI8 || instr.type() == Type::kI32 ||
                       instr.type() == Type::kI64,
                   "load type must be i8, i32 or i64");
          break;
        case Opcode::kStore:
          at.check(instr.operands.size() == 2, "store arity");
          at.check(instr.operands[1]->type() == Type::kI64, "store address must be i64");
          at.check(instr.operands[0]->type() == Type::kI8 ||
                       instr.operands[0]->type() == Type::kI32 ||
                       instr.operands[0]->type() == Type::kI64,
                   "store value must be i8, i32 or i64");
          break;
        case Opcode::kBr:
          at.check(instr.targets.size() == 1, "br target count");
          break;
        case Opcode::kCondBr:
          at.check(instr.targets.size() == 2 && instr.operands.size() == 1, "condbr shape");
          at.check(instr.operands[0]->type() == Type::kI1, "condbr condition must be i1");
          break;
        case Opcode::kSwitch:
          at.check(instr.operands.size() == 1, "switch arity");
          at.check(instr.targets.size() == instr.case_values.size() + 1,
                   "switch case/target mismatch");
          break;
        case Opcode::kRet:
          at.check(fn.return_type() == Type::kVoid, "non-void function return");
          break;
        case Opcode::kUnreachable:
          break;
        case Opcode::kCall: {
          at.check(instr.callee != nullptr, "call without callee");
          at.check(module.find_function(instr.callee->name()) == instr.callee,
                   "callee not in module");
          at.check(instr.operands.size() == instr.callee->param_count(),
                   "call argument count mismatch");
          at.check(instr.type() == instr.callee->return_type(), "call result type mismatch");
          break;
        }
      }
    }

    // Straight-line def-before-use inside the block.
    std::set<const Value*> seen;
    for (const auto& instr : block->instrs) {
      for (const Value* op : instr->operands) {
        if (op->kind() != Value::Kind::kInstr) continue;
        bool in_this_block = false;
        for (const auto& candidate : block->instrs) {
          if (candidate.get() == op) {
            in_this_block = true;
            break;
          }
        }
        if (in_this_block) {
          at.check(seen.contains(op), "use before definition within block");
        }
      }
      seen.insert(instr.get());
    }
  }
}

}  // namespace

void verify(const Module& module) {
  std::set<std::string_view> names;
  for (const auto& fn : module.functions) {
    if (!names.insert(fn->name()).second) {
      fail(ErrorKind::kIr, "duplicate function @" + fn->name());
    }
    verify_function(module, *fn);
  }
  std::set<std::string_view> global_names;
  for (const auto& global : module.globals) {
    if (!global_names.insert(global->name()).second) {
      fail(ErrorKind::kIr, "duplicate global @" + global->name());
    }
    if (global->size() == 0) fail(ErrorKind::kIr, "empty global @" + global->name());
  }
}

}  // namespace r2r::ir
