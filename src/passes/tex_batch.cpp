/**
 * @file
 * Texture-fetch batching: fetches of the same sampler at the same
 * coordinates — and read-only varying/uniform/const-array loads —
 * collapse onto the first fetch on a dominating path, leaving one
 * fetch whose consumers extract the lanes they need.
 *
 * The always-on canonicalisation already does this *within* a block;
 * full GVN does it across blocks but drags every other op class along
 * and is a flag the mobile drivers in the paper's device set do not
 * run. tex_batch is the targeted middle ground: dominance-scoped value
 * numbering over the fetch class only — the memory-bandwidth win that
 * matters on the tile-based mobile parts (ARM, Qualcomm), whose JIT
 * models run no GVN of their own.
 *
 * Every participating op is read-only (samplers, inputs, uniforms,
 * const arrays), so unlike GVN no memory versioning is needed; the
 * scope stack alone enforces dominance (an if-arm fetch never serves
 * the other arm or the code after the join, and loop cond-region
 * values never serve the body, mirroring the GVN/back-end contract).
 */
#include <unordered_map>

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

bool
isFetchOp(const Instr &i)
{
    switch (i.op) {
      case Opcode::Texture:
      case Opcode::TextureBias:
      case Opcode::TextureLod:
        return true;
      case Opcode::LoadVar:
      case Opcode::LoadElem:
        return i.var && i.var->isReadOnly();
      default:
        return false;
    }
}

namespace {

class TexBatcher
{
  public:
    explicit TexBatcher(Module &module) : module_(module) {}

    bool run()
    {
        walkRegion(module_.body);
        if (repl_.empty())
            return false;
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
    Instr *resolve(Instr *v)
    {
        while (v) {
            auto it = repl_.find(v);
            if (it == repl_.end())
                break;
            v = it->second;
        }
        return v;
    }

    void walkRegion(Region &region)
    {
        for (auto &node : region.nodes) {
            if (auto *b = dyn_cast<Block>(node.get())) {
                for (auto &ip : b->instrs) {
                    Instr &i = *ip;
                    for (Instr *&op : i.operands)
                        op = resolve(op);
                    if (!isFetchOp(i))
                        continue;
                    if (Instr *prior = fetches_.findOrInsert(i))
                        repl_[&i] = prior;
                }
            } else if (auto *f = dyn_cast<IfNode>(node.get())) {
                f->cond = resolve(f->cond);
                fetches_.pushScope();
                walkRegion(f->thenRegion);
                fetches_.popScope();
                fetches_.pushScope();
                walkRegion(f->elseRegion);
                fetches_.popScope();
            } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
                // Cond region and body get separate scopes (the back
                // end re-emits the condition at a different program
                // point); pre-loop fetches stay visible to both, which
                // is what lifts a loop-constant fetch to one issue.
                fetches_.pushScope();
                walkRegion(l->condRegion);
                l->condValue = resolve(l->condValue);
                fetches_.popScope();
                fetches_.pushScope();
                walkRegion(l->body);
                fetches_.popScope();
            }
        }
    }

    Module &module_;
    /** Fetch identity: op, type, operands, var, indices. */
    ValueTable fetches_;
    std::unordered_map<Instr *, Instr *> repl_;
};

} // namespace

bool
texBatch(Module &module)
{
    return TexBatcher(module).run();
}

} // namespace gsopt::passes
