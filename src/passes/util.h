/**
 * @file
 * Shared machinery for optimization passes: the definition of a use and
 * module-wide use counts, the value table behind every value-numbering
 * pass, an insert-anywhere
 * instruction factory, and the constant evaluator used by folding.
 */
#ifndef GSOPT_PASSES_UTIL_H
#define GSOPT_PASSES_UTIL_H

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ir/ir.h"

namespace gsopt::passes {

/** Calls @p fn on every use of a value: each operand of each
 * instruction in the body, then each structured condition reference
 * (IfNode::cond, LoopNode::condValue). */
void forEachUse(const ir::Module &module,
                const std::function<void(const ir::Instr *)> &fn);

/** Number of uses of each value, as forEachUse() counts them. */
std::unordered_map<const ir::Instr *, int>
countUses(const ir::Module &module);

/**
 * Structural value numbering, shared by localCse (canonicalize), GVN,
 * tex_batch and the tuner's dupFetches feature. Two instructions are one
 * value when they agree on opcode, type spelling (Type::str()), operand
 * ids, var id, memory version, indices and constant lanes, where lanes
 * count as equal when they print alike with std::to_string's six
 * decimals: 0 and 1e-9 are one value, 0 and -0 are two, and so are
 * NaNs of opposite sign.
 *
 * The key is read from the instructions themselves: a slot holds only
 * the key's hash, the instruction and its memory version, and a lookup
 * compares field by field (open addressing, linear probing), so neither
 * hashing nor comparing allocates. Scopes nest: popScope() forgets
 * every instruction recorded since the matching pushScope(), which
 * gives localCse its per-block table and GVN/tex_batch their dominance
 * scopes. The table holds at most one instruction per value.
 */
class ValueTable
{
  public:
    /**
     * The recorded instruction equal to @p instr at memory version
     * @p version (GVN's per-var store count for loads, 0 otherwise);
     * nullptr if there is none, in which case @p instr is recorded in
     * the current scope.
     */
    ir::Instr *findOrInsert(ir::Instr &instr, int version = 0);

    void pushScope() { marks_.push_back(log_.size()); }
    void popScope();

  private:
    struct Slot
    {
        uint64_t hash;
        ir::Instr *instr; ///< nullptr: empty
        int version;
    };

    static uint64_t hashOf(const ir::Instr &instr, int version);
    static bool sameValue(const Slot &slot, const ir::Instr &instr,
                          int version);
    void place(const Slot &slot);
    void grow();

    /** Power-of-two size, at most half full. */
    std::vector<Slot> slots_ = std::vector<Slot>(64, Slot{0, nullptr, 0});
    std::vector<Slot> log_;   ///< live entries in insertion order
    std::vector<size_t> marks_; ///< log_ size at each pushScope()
};

/**
 * Creates instructions inside an existing Block at a fixed position
 * (before the instruction passes are rewriting). Keeps SSA order valid:
 * everything emitted lands before the rewrite root.
 */
class LocalBuilder
{
  public:
    /** Insert before @p block->instrs[pos]; pos may equal size(). */
    LocalBuilder(ir::Module &module, ir::Block &block, size_t pos)
        : module_(module), block_(block), pos_(pos)
    {
    }

    ir::Instr *emit(ir::Opcode op, ir::Type type,
                    std::vector<ir::Instr *> operands = {},
                    ir::Var *var = nullptr,
                    std::vector<int> indices = {});

    ir::Instr *constFloat(double v);
    ir::Instr *constSplat(ir::Type type, double v);
    ir::Instr *constVec(ir::Type type, std::vector<double> lanes);

    /** Position after all emissions (== index of the rewrite root). */
    size_t position() const { return pos_; }

  private:
    ir::Module &module_;
    ir::Block &block_;
    size_t pos_;
};

/**
 * Evaluate an instruction whose operands are all Const, returning the
 * result lanes; nullopt if the op is not foldable.
 */
std::optional<std::vector<double>> foldConstInstr(const ir::Instr &instr);

/** True if the value is a Const (scalar or splat vector) equal to v. */
bool isConstSplatValue(const ir::Instr *instr, double v);

/**
 * If @p instr is a "scalar-like" constant — a Const scalar, a Const
 * splat vector, or a Construct splat of a Const scalar — return the
 * scalar value.
 */
std::optional<double> splatConstValue(const ir::Instr *instr);

} // namespace gsopt::passes

#endif // GSOPT_PASSES_UTIL_H
