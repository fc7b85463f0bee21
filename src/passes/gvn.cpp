/**
 * @file
 * Global value numbering over the structured dominance tree. The always-
 * on CSE is block-local; GVN extends value numbering across nested
 * structure (code before an if dominates both arms and everything after
 * it cannot see arm-local values, which the scope stack enforces).
 * Loads participate with a memory version per variable that bumps on
 * stores, so redundant loads across control flow collapse too.
 *
 * As in the paper (Section VI-D2), this matters only for the few
 * shaders with non-trivial control flow: straight-line redundancy is
 * already gone after local CSE.
 */
#include <unordered_map>
#include <vector>

#include "ir/walk.h"
#include "passes/passes.h"
#include "passes/util.h"

namespace gsopt::passes {

using ir::Block;
using ir::dyn_cast;
using ir::IfNode;
using ir::Instr;
using ir::LoopNode;
using ir::Module;
using ir::Opcode;
using ir::Region;

namespace {

class GvnPass
{
  public:
    explicit GvnPass(Module &module)
        : module_(module), memVersion_(module.vars.size(), 0)
    {
    }

    bool run()
    {
        walkRegion(module_.body);

        if (repl_.empty())
            return false;
        auto resolve = [this](Instr *v) {
            while (v) {
                auto it = repl_.find(v);
                if (it == repl_.end())
                    break;
                v = it->second;
            }
            return v;
        };
        ir::forEachInstr(module_.body, [&](Instr &i) {
            for (Instr *&op : i.operands)
                op = resolve(op);
        });
        ir::forEachNode(module_.body, [&](ir::Node &n) {
            if (auto *f = dyn_cast<IfNode>(&n))
                f->cond = resolve(f->cond);
            else if (auto *l = dyn_cast<LoopNode>(&n))
                l->condValue = resolve(l->condValue);
        });
        return true;
    }

  private:
    /** Version of @p i's memory in the value key: loads see the
     * store count of their var, everything else 0. */
    int versionOf(const Instr &i)
    {
        if (i.var && (i.op == Opcode::LoadVar || i.op == Opcode::LoadElem))
            return memVersion_[static_cast<size_t>(i.var->id)];
        return 0;
    }

    void bumpStoredVars(const Region &region)
    {
        ir::forEachInstr(region, [this](const Instr &i) {
            if (i.op == Opcode::StoreVar || i.op == Opcode::StoreElem)
                ++memVersion_[static_cast<size_t>(i.var->id)];
        });
    }

    void walkRegion(Region &region)
    {
        for (auto &node : region.nodes) {
            if (auto *b = dyn_cast<Block>(node.get())) {
                for (auto &ip : b->instrs) {
                    Instr &i = *ip;
                    for (Instr *&op : i.operands) {
                        auto it = repl_.find(op);
                        while (it != repl_.end()) {
                            op = it->second;
                            it = repl_.find(op);
                        }
                    }
                    if (i.op == Opcode::StoreVar ||
                        i.op == Opcode::StoreElem) {
                        ++memVersion_[static_cast<size_t>(i.var->id)];
                        continue;
                    }
                    if (ir::hasSideEffects(i.op))
                        continue;
                    if (Instr *prior = table_.findOrInsert(i, versionOf(i)))
                        repl_[&i] = prior;
                }
            } else if (auto *f = dyn_cast<IfNode>(node.get())) {
                if (f->cond) {
                    auto it = repl_.find(f->cond);
                    while (it != repl_.end()) {
                        f->cond = it->second;
                        it = repl_.find(f->cond);
                    }
                }
                auto versions = memVersion_;
                table_.pushScope();
                walkRegion(f->thenRegion);
                table_.popScope();
                memVersion_ = versions;
                table_.pushScope();
                walkRegion(f->elseRegion);
                table_.popScope();
                memVersion_ = versions;
                // After the if, any var stored in either arm has a new
                // version.
                bumpStoredVars(f->thenRegion);
                bumpStoredVars(f->elseRegion);
            } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
                // Everything stored by the loop varies per iteration:
                // bump before walking so body loads don't match
                // pre-loop loads.
                bumpStoredVars(l->condRegion);
                bumpStoredVars(l->body);
                if (l->counter)
                    ++memVersion_[static_cast<size_t>(l->counter->id)];
                // Cond region and body get *separate* scopes: values
                // must not be shared between them (the back end emits
                // the condition computation twice, at different points).
                table_.pushScope();
                walkRegion(l->condRegion);
                if (l->condValue) {
                    auto it = repl_.find(l->condValue);
                    while (it != repl_.end()) {
                        l->condValue = it->second;
                        it = repl_.find(l->condValue);
                    }
                }
                table_.popScope();
                table_.pushScope();
                walkRegion(l->body);
                table_.popScope();
                bumpStoredVars(l->condRegion);
                bumpStoredVars(l->body);
                if (l->counter)
                    ++memVersion_[static_cast<size_t>(l->counter->id)];
            }
        }
    }

    Module &module_;
    ValueTable table_;
    /** Stores seen so far per var, indexed by Var::id. */
    std::vector<int> memVersion_;
    std::unordered_map<Instr *, Instr *> repl_;
};

} // namespace

bool
gvn(Module &module)
{
    return GvnPass(module).run();
}

} // namespace gsopt::passes
