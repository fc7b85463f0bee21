/**
 * @file
 * Unit tests for the optimization passes, plus the interpreter-backed
 * equivalence property: every flag combination must preserve shader
 * semantics on a battery of inputs.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "emit/offline.h"
#include "ir/builder.h"
#include "ir/interp.h"
#include "ir/verifier.h"
#include "ir/walk.h"
#include "passes/passes.h"
#include "passes/registry.h"
#include "passes/util.h"

namespace gsopt {
namespace {

using ir::InterpEnv;
using passes::OptFlags;

std::unique_ptr<ir::Module>
build(const std::string &src)
{
    return emit::compileToIr(src);
}

size_t
countOps(const ir::Module &m, ir::Opcode op)
{
    size_t n = 0;
    ir::forEachInstr(m.body, [&](const ir::Instr &i) { n += i.op == op; });
    return n;
}

size_t
loopCount(const ir::Module &m)
{
    size_t n = 0;
    ir::forEachNode(const_cast<ir::Module &>(m).body,
                    [&](ir::Node &node) {
                        n += node.kind() == ir::NodeKind::Loop;
                    });
    return n;
}

size_t
ifCount(const ir::Module &m)
{
    size_t n = 0;
    ir::forEachNode(const_cast<ir::Module &>(m).body,
                    [&](ir::Node &node) {
                        n += node.kind() == ir::NodeKind::If;
                    });
    return n;
}

// --------------------------------------------------------- canonicalize

TEST(Canonicalize, FoldsConstantExpressions)
{
    auto m = build("out float c; void main() { c = 2.0 * 3.0 + "
                   "sqrt(16.0); }");
    passes::canonicalize(*m);
    // Single store of a single constant.
    EXPECT_EQ(m->instructionCount(), 2u);
    EXPECT_DOUBLE_EQ(ir::interpret(*m, {}).outputs.at("c")[0], 10.0);
}

TEST(Canonicalize, ForwardsStoresToLoads)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float a = x * 2.0;
            float b = a;
            c = b;
        }
    )");
    passes::canonicalize(*m);
    // After forwarding + DCE: load x, const, mul, store c.
    EXPECT_LE(m->instructionCount(), 4u);
    EXPECT_EQ(countOps(*m, ir::Opcode::StoreVar), 1u);
}

TEST(Canonicalize, LocalCseRemovesDuplicates)
{
    auto m = build(R"(
        in vec2 uv;
        out vec4 c;
        void main() {
            float a = uv.x * uv.y;
            float b = uv.x * uv.y;
            c = vec4(a + b);
        }
    )");
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
}

TEST(Canonicalize, RemovesDeadCode)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float unused = sin(x) * cos(x);
            c = x;
        }
    )");
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Sin), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Cos), 0u);
}

TEST(Canonicalize, FoldsConstantIf)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            if (2.0 > 1.0) { c = x; } else { c = -x; }
        }
    )");
    passes::canonicalize(*m);
    EXPECT_EQ(ifCount(*m), 0u);
    InterpEnv env;
    env.inputs["x"] = {3.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 3.0);
}

TEST(Canonicalize, FoldsConstArrayIndexing)
{
    auto m = build(R"(
        out float c;
        const float w[3] = float[](1.0, 2.0, 4.0);
        void main() { c = w[0] + w[2]; }
    )");
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::LoadElem), 0u);
    EXPECT_DOUBLE_EQ(ir::interpret(*m, {}).outputs.at("c")[0], 5.0);
}

TEST(Canonicalize, DoesNotRemoveIdentityMultiply)
{
    // x*1 removal belongs to the FP-reassociation *flag*, not the
    // always-on canonicaliser (flags must keep their measurable effect).
    auto m = build("in float x; out float c; void main() { c = x * "
                   "1.0; }");
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
}

// --------------------------------------------------------------- unroll

TEST(Canonicalize, DeadChainsDieInOneCallConditionAndStoreChainsStay)
{
    using ir::Opcode;
    ir::Module m;
    ir::Var *x = m.newVar("x", ir::Type::floatTy(), ir::VarKind::Input);
    ir::Var *o = m.newVar("o", ir::Type::floatTy(), ir::VarKind::Output);
    ir::IrBuilder b(m);
    ir::Instr *v = b.load(x);
    // A dead chain, nothing using its last link, longer than
    // canonicalize's 32 rounds: it must go in one DCE sweep.
    const Opcode deadOps[] = {Opcode::Tan, Opcode::Atan, Opcode::Exp2,
                              Opcode::Log2};
    ir::Instr *link = v;
    for (int k = 0; k < 40; ++k)
        link = b.unary(deadOps[k % 4], link);
    // A chain used only by an if condition.
    ir::IfNode *ifn = b.createIf(
        b.binary(Opcode::Lt, b.unary(Opcode::Sin, v), b.constFloat(0.5)));
    b.pushRegion(&ifn->thenRegion);
    b.store(o, b.constFloat(1.0));
    b.popRegion();
    // A chain used only by a generic loop's condition.
    ir::LoopNode *loop = b.createLoop();
    b.pushRegion(&loop->condRegion);
    loop->condValue = b.binary(Opcode::Gt, b.unary(Opcode::Cos, b.load(x)),
                               b.constFloat(0.25));
    b.popRegion();
    b.pushRegion(&loop->body);
    b.store(o, b.constFloat(2.0));
    b.popRegion();
    // A chain feeding a store to an output.
    b.store(o, b.binary(Opcode::Add, b.unary(Opcode::Exp, v),
                        b.constFloat(3.0)));

    passes::canonicalize(m);
    EXPECT_TRUE(ir::verify(m).empty());
    for (Opcode op : deadOps)
        EXPECT_EQ(countOps(m, op), 0u) << ir::opcodeName(op);
    for (Opcode op : {Opcode::Sin, Opcode::Lt, Opcode::Cos, Opcode::Gt,
                      Opcode::Exp, Opcode::Add})
        EXPECT_EQ(countOps(m, op), 1u) << ir::opcodeName(op);
    EXPECT_EQ(ifCount(m), 1u);
    EXPECT_EQ(loopCount(m), 1u);
}

// ---------------------------------------------------------- value table

/**
 * The string key that localCse, GVN and tex_batch each built before they
 * shared passes::ValueTable, restated as its oracle: two instructions
 * must be one value exactly when these keys match. @p version < 0
 * leaves the memory version out (localCse, tex_batch). tex_batch's key
 * had no constant lanes, but the fetches it numbers carry none.
 */
std::string
stringKey(const ir::Instr &i, int version)
{
    std::string key = std::to_string(static_cast<int>(i.op));
    key += "/" + i.type.str();
    for (const ir::Instr *op : i.operands)
        key += ":" + std::to_string(op->id);
    if (i.var) {
        key += "@" + std::to_string(i.var->id);
        if (version >= 0 && (i.op == ir::Opcode::LoadVar ||
                             i.op == ir::Opcode::LoadElem))
            key += "v" + std::to_string(version);
    }
    for (int idx : i.indices)
        key += "." + std::to_string(idx);
    for (double d : i.constData)
        key += "," + std::to_string(d);
    return key;
}

ir::Instr *
constant(ir::Module &m, double v)
{
    ir::Instr *i = m.newInstr();
    i->op = ir::Opcode::Const;
    i->type = ir::Type::floatTy();
    i->constData = {v};
    return i;
}

TEST(ValueTable, ConstantsAreOneValueExactlyWhenTheirTextsMatch)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> values = {
        0.0, -0.0, 1.7948965e-09, 1e-9, -1e-9, 0.70710678182,
        0.70710678055, 0.707107, 5e-7, 4.999999e-7, 5.000001e-7, 1e-6,
        1.5e-6, 2e-6, 2.5e-6, 3e-6, 0.0078125, 0.007812, 0.007813, nan,
        -nan, inf, -inf, 1e300, std::nextafter(1e300, inf), -1e300,
        1048576.0000005, 1048576.000001, 0x1p34,
        std::nextafter(0x1p34, 0.0), 17179869183.999998, 1e22};
    ir::Module m;
    std::vector<ir::Instr *> consts;
    for (double v : values)
        consts.push_back(constant(m, v));
    for (ir::Instr *a : consts) {
        for (ir::Instr *c : consts) {
            passes::ValueTable table;
            ASSERT_EQ(table.findOrInsert(*a), nullptr);
            const bool merged = table.findOrInsert(*c) != nullptr;
            EXPECT_EQ(merged,
                      stringKey(*a, -1) == stringKey(*c, -1))
                << a->constData[0] << " vs " << c->constData[0];
        }
    }

    auto same = [&m](double a, double c) {
        passes::ValueTable table;
        table.findOrInsert(*constant(m, a));
        return table.findOrInsert(*constant(m, c)) != nullptr;
    };
    EXPECT_TRUE(same(0.0, 1.7948965e-09));
    EXPECT_TRUE(same(0.70710678182, 0.70710678055));
    EXPECT_FALSE(same(-0.0, 0.0));
    EXPECT_TRUE(same(-1e-9, -0.0));
    EXPECT_FALSE(same(-1e-9, 0.0));
    EXPECT_TRUE(same(5e-7, 0.0));  // the double lies just below the tie
    EXPECT_TRUE(same(1.5e-6, 2e-6)); // ... and this one just above
    EXPECT_TRUE(same(nan, nan));
    EXPECT_FALSE(same(nan, -nan));
    EXPECT_FALSE(same(inf, -inf));
    EXPECT_TRUE(same(1e300, 1e300));
    EXPECT_FALSE(same(1e300, std::nextafter(1e300, inf)));
}

TEST(ValueTable, KeysOnTypeMemoryVersionAndScope)
{
    using ir::Opcode;
    ir::Module m;
    ir::Var *x = m.newVar("x", ir::Type::floatTy(), ir::VarKind::Input);
    ir::Var *y = m.newVar("y", ir::Type::floatTy(), ir::VarKind::Local);
    ir::IrBuilder b(m);
    ir::Instr *lx = b.load(x);
    ir::Instr *ly = b.load(y);
    ir::Instr *sum = b.binary(Opcode::Add, lx, ly);
    ir::Instr *asInt = m.newInstr(*sum);
    asInt->type = ir::Type::intTy();
    ir::Instr *twin = m.newInstr(*sum);
    ir::Instr *ly2 = m.newInstr(*ly);

    passes::ValueTable table;
    EXPECT_EQ(table.findOrInsert(*sum), nullptr);
    EXPECT_EQ(table.findOrInsert(*asInt), nullptr); // same operands
    EXPECT_EQ(table.findOrInsert(*twin), sum);
    // GVN loads: a store in between bumps the version.
    EXPECT_EQ(table.findOrInsert(*ly, 0), nullptr);
    EXPECT_EQ(table.findOrInsert(*ly2, 1), nullptr);
    EXPECT_EQ(table.findOrInsert(*ly2, 0), ly);

    // Scopes: an inner value is forgotten on pop, outer ones stay.
    ir::Instr *sin1 = b.unary(Opcode::Sin, lx);
    ir::Instr *sin2 = m.newInstr(*sin1);
    table.pushScope();
    EXPECT_EQ(table.findOrInsert(*sin1), nullptr);
    EXPECT_EQ(table.findOrInsert(*m.newInstr(*sum)), sum);
    table.pushScope();
    EXPECT_EQ(table.findOrInsert(*sin2), sin1);
    table.popScope();
    table.popScope();
    EXPECT_EQ(table.findOrInsert(*sin2), nullptr);
    EXPECT_EQ(table.findOrInsert(*m.newInstr(*sin1)), sin2);
}

TEST(ValueTable, SeededSweepMatchesStringKeys)
{
    std::mt19937_64 rng(2018);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    ir::Module m;
    const std::vector<ir::Var *> vars = {
        nullptr,
        m.newVar("x", ir::Type::floatTy(), ir::VarKind::Input),
        m.newVar("u", ir::Type::vec(4), ir::VarKind::Uniform),
        m.newVar("l", ir::Type::floatTy(), ir::VarKind::Local)};
    std::vector<ir::Instr *> pool;
    for (int k = 0; k < 4; ++k)
        pool.push_back(m.newInstr());
    // Types that print alike (every void shape; mat2 of any base) sit
    // next to types that differ only in base, rows or array size.
    const std::vector<ir::Type> types = {
        ir::Type::floatTy(), ir::Type::intTy(), ir::Type::boolTy(),
        ir::Type::vec(3), ir::Type::ivec(3), ir::Type::bvec(3),
        ir::Type::vec(4), ir::Type::voidTy(),
        ir::Type{ir::BaseType::Void, 1, 3, 0}, ir::Type::sampler2D(),
        ir::Type::mat(2), ir::Type{ir::BaseType::Int, 2, 2, 0},
        ir::Type{ir::BaseType::Float, 2, 3, 0},
        ir::Type::floatTy().array(3), ir::Type::vec(2).array(3)};
    const std::vector<ir::Opcode> ops = {
        ir::Opcode::Const, ir::Opcode::Add, ir::Opcode::Construct,
        ir::Opcode::Swizzle, ir::Opcode::LoadVar, ir::Opcode::LoadElem,
        ir::Opcode::Texture};
    // Lanes around six-decimal ties, from tiny to past 2^34, and the
    // special values.
    std::vector<double> lanes = {
        0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 1e300, 1e-300};
    for (double base : {0.0, 1e-6, 0.25, 0.707107, 3.0, 1048576.0,
                        17179869183.0, 0x1p34}) {
        for (double off : {0.0, 1e-12, 4.999999e-7, 5e-7, 5.000001e-7,
                           9.99999e-7}) {
            lanes.push_back(base + off);
            lanes.push_back(-(base - off));
        }
    }

    auto randomInstr = [&]() {
        ir::Instr *i = m.newInstr();
        i->op = ops[pick(ops.size())];
        i->type = types[pick(3) == 0 ? pick(types.size()) : 0];
        const size_t nOps = pick(3);
        for (size_t k = 0; k < nOps; ++k)
            i->operands.push_back(pool[pick(2)]);
        i->var = vars[pick(vars.size())];
        const size_t nIdx = pick(4) == 0 ? 1 + pick(2) : 0;
        for (size_t k = 0; k < nIdx; ++k)
            i->indices.push_back(static_cast<int>(pick(3)) - 1);
        const size_t nLanes = pick(3);
        for (size_t k = 0; k < nLanes; ++k)
            i->constData.push_back(lanes[pick(lanes.size())]);
        return i;
    };

    for (const bool versions : {false, true}) {
        SCOPED_TRACE(versions ? "gvn" : "localCse / tex_batch");
        passes::ValueTable table;
        std::map<std::string, ir::Instr *> oracle;
        std::vector<std::string> log;
        std::vector<size_t> marks;
        size_t merges = 0;
        for (int step = 0; step < 20000; ++step) {
            const size_t r = pick(64);
            if (r == 0 && !marks.empty()) {
                table.popScope();
                for (; log.size() > marks.back(); log.pop_back())
                    oracle.erase(log.back());
                marks.pop_back();
                continue;
            }
            if (r == 1) {
                table.pushScope();
                marks.push_back(log.size());
                continue;
            }
            ir::Instr *i = randomInstr();
            const bool load = i->var && (i->op == ir::Opcode::LoadVar ||
                                         i->op == ir::Opcode::LoadElem);
            const int version =
                versions && load ? static_cast<int>(pick(2)) : 0;
            const std::string key = stringKey(*i, versions ? version : -1);
            auto [it, inserted] = oracle.emplace(key, i);
            if (inserted)
                log.push_back(key);
            else
                ++merges;
            ASSERT_EQ(table.findOrInsert(*i, version),
                      inserted ? nullptr : it->second)
                << "step " << step << " key " << key;
        }
        EXPECT_GT(merges, 2000u);
    }
}

TEST(Unroll, FullyUnrollsCanonicalLoop)
{
    auto m = build(R"(
        out float c;
        uniform float u;
        void main() {
            float s = 0.0;
            for (int i = 0; i < 4; i++) { s += u * float(i); }
            c = s;
        }
    )");
    passes::canonicalize(*m);
    ASSERT_EQ(loopCount(*m), 1u);
    EXPECT_TRUE(passes::unroll(*m));
    EXPECT_EQ(loopCount(*m), 0u);
    passes::canonicalize(*m);
    InterpEnv env;
    env.uniforms["u"] = {2.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0],
                     2.0 * (0 + 1 + 2 + 3));
}

TEST(Unroll, NestedLoopsFlattenCompletely)
{
    auto m = build(R"(
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 2; j++) { s += 1.0; }
            }
            c = s;
        }
    )");
    passes::unroll(*m);
    EXPECT_EQ(loopCount(*m), 0u);
    passes::canonicalize(*m);
    EXPECT_DOUBLE_EQ(ir::interpret(*m, {}).outputs.at("c")[0], 6.0);
}

TEST(Unroll, LeavesDynamicLoops)
{
    auto m = build(R"(
        uniform int n;
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < n; i++) { s += 1.0; }
            c = s;
        }
    )");
    EXPECT_FALSE(passes::unroll(*m));
    EXPECT_EQ(loopCount(*m), 1u);
}

TEST(Unroll, EnablesConstantWeightFolding)
{
    // The motivating-example mechanism: after unrolling, the const
    // weight table indexes become literals and fold to constants.
    auto m = build(R"(
        out float c;
        const float w[3] = float[](0.25, 0.5, 0.25);
        void main() {
            float total = 0.0;
            for (int i = 0; i < 3; i++) { total += w[i]; }
            c = total;
        }
    )");
    passes::unroll(*m);
    passes::canonicalize(*m);
    // total is now a compile-time 1.0: only the store remains.
    EXPECT_EQ(m->instructionCount(), 2u);
}

// ---------------------------------------------------------------- hoist

TEST(Hoist, FlattensAssignmentsToSelects)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float r = 0.0;
            if (x > 0.5) { r = x * 2.0; } else { r = x * 3.0; }
            c = r;
        }
    )");
    passes::canonicalize(*m);
    ASSERT_EQ(ifCount(*m), 1u);
    EXPECT_TRUE(passes::hoist(*m));
    EXPECT_EQ(ifCount(*m), 0u);
    EXPECT_GE(countOps(*m, ir::Opcode::Select), 1u);
    for (double x : {0.2, 0.7}) {
        InterpEnv env;
        env.inputs["x"] = {x};
        double expect = x > 0.5 ? x * 2.0 : x * 3.0;
        EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0],
                         expect);
    }
}

TEST(Hoist, OneArmedIfUsesPreValue)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float r = 7.0;
            if (x > 0.5) { r = 1.0; }
            c = r;
        }
    )");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::hoist(*m));
    EXPECT_EQ(ifCount(*m), 0u);
    InterpEnv env;
    env.inputs["x"] = {0.1};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 7.0);
    env.inputs["x"] = {0.9};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 1.0);
}

TEST(Hoist, RefusesTextureAndDiscard)
{
    auto m = build(R"(
        uniform sampler2D t;
        in vec2 uv;
        in float x;
        out vec4 c;
        void main() {
            vec4 r = vec4(0.0);
            if (x > 0.5) { r = texture(t, uv); }
            if (x > 0.9) { discard; }
            c = r;
        }
    )");
    passes::canonicalize(*m);
    passes::hoist(*m);
    EXPECT_EQ(ifCount(*m), 2u); // neither if may be flattened
}

TEST(Hoist, NestedIfsFlattenBottomUp)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float r = 0.0;
            if (x > 0.25) {
                r = 1.0;
                if (x > 0.75) { r = 2.0; }
            }
            c = r;
        }
    )");
    passes::canonicalize(*m);
    passes::hoist(*m);
    EXPECT_EQ(ifCount(*m), 0u);
    for (double x : {0.1, 0.5, 0.9}) {
        InterpEnv env;
        env.inputs["x"] = {x};
        double expect = x > 0.25 ? (x > 0.75 ? 2.0 : 1.0) : 0.0;
        EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0],
                         expect)
            << x;
    }
}

// ------------------------------------------------------------- coalesce

TEST(Coalesce, InsertChainBecomesConstruct)
{
    auto m = build(R"(
        in float a;
        out vec4 c;
        void main() {
            vec4 v;
            v.x = a;
            v.y = a * 2.0;
            v.z = a * 3.0;
            v.w = 1.0;
            c = v;
        }
    )");
    passes::canonicalize(*m);
    ASSERT_GE(countOps(*m, ir::Opcode::Insert), 3u);
    EXPECT_TRUE(passes::coalesce(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Insert), 0u);
    InterpEnv env;
    env.inputs["a"] = {2.0};
    auto out = ir::interpret(*m, env).outputs.at("c");
    EXPECT_DOUBLE_EQ(out[2], 6.0);
    EXPECT_DOUBLE_EQ(out[3], 1.0);
}

TEST(Coalesce, ConstructOfExtractsBecomesSwizzle)
{
    auto m = build(R"(
        in vec4 v;
        out vec4 c;
        void main() {
            c = vec4(v.w, v.z, v.y, v.x);
        }
    )");
    passes::canonicalize(*m);
    passes::coalesce(*m);
    EXPECT_GE(countOps(*m, ir::Opcode::Swizzle), 1u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Construct), 0u);
}

// ------------------------------------------------------------------ gvn

TEST(Gvn, EliminatesRedundancyAcrossBranches)
{
    auto m = build(R"(
        in float x;
        in float y;
        out float c;
        void main() {
            float common = x * y + 1.0;
            float r = 0.0;
            if (x > 0.5) {
                r = (x * y + 1.0) * 2.0;
            } else {
                r = (x * y + 1.0) * 3.0;
            }
            c = r + common;
        }
    )");
    passes::canonicalize(*m);
    size_t before = countOps(*m, ir::Opcode::Mul);
    EXPECT_TRUE(passes::gvn(*m));
    passes::canonicalize(*m);
    EXPECT_LT(countOps(*m, ir::Opcode::Mul), before);
    InterpEnv env;
    env.inputs["x"] = {0.8};
    env.inputs["y"] = {0.5};
    double common = 0.8 * 0.5 + 1.0;
    EXPECT_NEAR(ir::interpret(*m, env).outputs.at("c")[0],
                common * 2.0 + common, 1e-12);
}

TEST(Gvn, RespectsMemoryVersions)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float a = x;
            float first = a * 2.0;
            a = a + 1.0;
            float second = a * 2.0;
            c = first + second;
        }
    )");
    passes::gvn(*m); // must NOT merge first and second
    passes::canonicalize(*m);
    InterpEnv env;
    env.inputs["x"] = {1.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0],
                     2.0 + 4.0);
}

// ------------------------------------------------------------ reassociate

TEST(Reassociate, FoldsIntChains)
{
    auto m = build(R"(
        uniform int k;
        out float c;
        void main() {
            int a = k + 2 + 3 + 4;
            c = float(a);
        }
    )");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::reassociate(*m));
    passes::canonicalize(*m);
    // k + 9: exactly one integer add remains.
    size_t int_adds = 0;
    ir::forEachInstr(m->body, [&](const ir::Instr &i) {
        int_adds += i.op == ir::Opcode::Add && i.type.isInt();
    });
    EXPECT_EQ(int_adds, 1u);
    InterpEnv env;
    env.uniforms["k"] = {5.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 14.0);
}

TEST(Reassociate, RemovesFloatAddZero)
{
    auto m = build("in float x; out float c; void main() { c = x + "
                   "0.0; }");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::reassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Add), 0u);
}

// --------------------------------------------------------- fpReassociate

TEST(FpReassociate, FactorsCommonMultiplier)
{
    auto m = build(R"(
        in vec4 a;
        in vec4 b;
        in vec4 k;
        out vec4 c;
        void main() { c = a * k + b * k; }
    )");
    passes::canonicalize(*m);
    size_t before = countOps(*m, ir::Opcode::Mul);
    ASSERT_EQ(before, 2u);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u); // k*(a+b)
    InterpEnv env;
    env.inputs["a"] = {1.0, 1.0, 1.0, 1.0};
    env.inputs["b"] = {2.0, 2.0, 2.0, 2.0};
    env.inputs["k"] = {3.0, 3.0, 3.0, 3.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 9.0);
}

TEST(FpReassociate, CancelsAddSub)
{
    auto m = build("in float a; in float b; out float c; void main() "
                   "{ c = a + b - a; }");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Add), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Sub), 0u);
    InterpEnv env;
    env.inputs["a"] = {123.0};
    env.inputs["b"] = {7.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 7.0);
}

TEST(FpReassociate, TriplesBecomeMultiply)
{
    auto m = build("in float a; out float c; void main() { c = a + a "
                   "+ a; }");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Add), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
    InterpEnv env;
    env.inputs["a"] = {2.5};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 7.5);
}

TEST(FpReassociate, GroupsScalarsBeforeVectors)
{
    // f1*(f2*v) -> (f1*f2)*v: one vector multiply instead of two.
    auto m = build(R"(
        in float f1;
        in float f2;
        in vec4 v;
        out vec4 c;
        void main() { c = f1 * (f2 * v); }
    )");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    size_t vec_muls = 0, scalar_muls = 0;
    ir::forEachInstr(m->body, [&](const ir::Instr &i) {
        if (i.op == ir::Opcode::Mul) {
            if (i.type.isVector())
                ++vec_muls;
            else
                ++scalar_muls;
        }
    });
    EXPECT_EQ(vec_muls, 1u);
    EXPECT_EQ(scalar_muls, 1u);
}

TEST(FpReassociate, GroupsConstants)
{
    // 3.0*(0.5*v) -> 1.5*v with the constant folded at compile time.
    auto m = build(R"(
        in vec4 v;
        out vec4 c;
        void main() { c = 3.0 * (0.5 * v); }
    )");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
    InterpEnv env;
    env.inputs["v"] = {2.0, 2.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 3.0);
}

TEST(FpReassociate, RemovesMultiplyByOne)
{
    auto m = build("in vec4 v; out vec4 c; void main() { c = v * 1.0; "
                   "}");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 0u);
}

// --------------------------------------------------------------- divToMul

TEST(DivToMul, ConstantDivisorBecomesMultiply)
{
    auto m = build("in vec4 v; out vec4 c; void main() { c = v / 4.0; "
                   "}");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::divToMul(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Div), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
    InterpEnv env;
    env.inputs["v"] = {8.0, 8.0, 8.0, 8.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 2.0);
}

TEST(DivToMul, LeavesDynamicDivisor)
{
    auto m = build("in vec4 v; in float d; out vec4 c; void main() { "
                   "c = v / d; }");
    passes::canonicalize(*m);
    EXPECT_FALSE(passes::divToMul(*m));
    EXPECT_EQ(countOps(*m, ir::Opcode::Div), 1u);
}

// ------------------------------------------------------------------ adce

TEST(Adce, IsNoOpAfterCanonicalize)
{
    // The paper's observation VI-D1: ADCE never changes the output once
    // trivially dead code is gone.
    const char *sources[] = {
        "in float x; out float c; void main() { float dead = sin(x); "
        "c = x; }",
        R"(
            in vec2 uv; uniform sampler2D t; out vec4 c;
            void main() {
                vec4 a = texture(t, uv);
                float unused = dot(a.rgb, vec3(1.0));
                c = a;
            }
        )",
        R"(
            in float x; out float c;
            void main() {
                float s = 0.0;
                for (int i = 0; i < 4; i++) { s += x; }
                c = s;
            }
        )",
    };
    for (const char *src : sources) {
        auto m = build(src);
        passes::canonicalize(*m);
        EXPECT_FALSE(passes::adce(*m)) << src;
    }
}

TEST(Adce, AloneRemovesDeadCode)
{
    // Without canonicalisation first, ADCE does remove dead code (it is
    // a real implementation, not a stub).
    auto m = build("in float x; out float c; void main() { float dead "
                   "= sin(x); c = x; }");
    EXPECT_TRUE(passes::adce(*m));
    EXPECT_EQ(countOps(*m, ir::Opcode::Sin), 0u);
}

// ----------------------------------------------- pipeline equivalence

/** Shaders exercising every pass interaction. */
const char *kEquivalenceShaders[] = {
    // Blur-like loop with const weights (the motivating example shape).
    R"(
        out vec4 fragColor;
        in vec2 uv;
        uniform sampler2D tex;
        uniform vec4 ambient;
        const vec4 weights[5] = vec4[](vec4(0.1), vec4(0.2), vec4(0.4),
                                       vec4(0.2), vec4(0.1));
        const vec2 offsets[5] = vec2[](vec2(-0.02), vec2(-0.01),
                                       vec2(0.0), vec2(0.01),
                                       vec2(0.02));
        void main() {
            float weightTotal = 0.0;
            fragColor = vec4(0.0);
            for (int i = 0; i < 5; i++) {
                weightTotal += weights[i][0];
                fragColor += weights[i] *
                             texture(tex, uv + offsets[i]) * 3.0 *
                             ambient;
            }
            fragColor /= weightTotal;
        }
    )",
    // Branchy lighting with reuse across branches.
    R"(
        in vec3 normal;
        in vec3 lightDir;
        in float gloss;
        out vec4 color;
        void main() {
            float nl = dot(normalize(normal), normalize(lightDir));
            float d = max(nl, 0.0);
            vec3 base = vec3(0.2, 0.3, 0.4);
            if (gloss > 0.5) {
                base = base * d + vec3(pow(d, 8.0));
            } else {
                base = base * d;
            }
            color = vec4(base, 1.0);
        }
    )",
    // Integer indexing, swizzle stores, ternaries.
    R"(
        in vec2 uv;
        out vec4 c;
        void main() {
            vec4 v = vec4(0.0);
            v.x = uv.x > 0.5 ? uv.y : 1.0 - uv.y;
            v.yz = uv * 2.0;
            v.w = 1.0;
            int k = 3;
            c = v * float(k + 1 + 0);
        }
    )",
    // Matrices + functions.
    R"(
        uniform mat3 rot;
        in vec3 p;
        out vec4 c;
        vec3 apply(vec3 v) { return rot * v; }
        void main() {
            vec3 q = apply(p) + apply(vec3(1.0, 0.0, 0.0));
            c = vec4(q, 1.0);
        }
    )",
    // Division-heavy, constant grouping opportunities.
    R"(
        in vec4 v;
        in float s;
        out vec4 c;
        void main() {
            vec4 a = v / 2.0;
            vec4 b = 4.0 * (0.25 * v);
            vec4 d = s * (2.0 * v);
            c = (a + b - a) + d / 8.0;
        }
    )",
    // Dynamic loop kept generic.
    R"(
        uniform int taps;
        in float x;
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < taps; i++) { s = s * 0.5 + x; }
            c = s;
        }
    )",
};

class FlagEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(FlagEquivalence, AllFlagCombosPreserveSemantics)
{
    const int shader_idx = GetParam();
    const std::string src = kEquivalenceShaders[shader_idx];

    auto reference = build(src);
    passes::canonicalize(*reference);

    // Probe points: a few fragment positions and uniform settings.
    std::vector<InterpEnv> envs;
    for (double ux : {0.1, 0.6}) {
        for (double uy : {0.3, 0.9}) {
            InterpEnv env;
            env.inputs["uv"] = {ux, uy};
            env.inputs["x"] = {ux};
            env.inputs["p"] = {ux, uy, 0.5};
            env.inputs["normal"] = {0.3, 0.9, uy};
            env.inputs["lightDir"] = {ux, 0.5, 0.2};
            env.inputs["gloss"] = {uy};
            env.inputs["v"] = {ux, uy, 0.25, 1.0};
            env.inputs["s"] = {uy};
            env.uniforms["taps"] = {3.0};
            env.uniforms["ambient"] = {0.8, 0.7, 0.6, 1.0};
            env.uniforms["rot"] = {0.0, 1.0, 0.0, -1.0, 0.0,
                                   0.0, 0.0, 0.0, 1.0};
            envs.push_back(std::move(env));
        }
    }

    std::vector<ir::InterpResult> want;
    for (const auto &env : envs)
        want.push_back(ir::interpret(*reference, env));

    // Registry-sized, not the historical literal 256: a registered
    // extra pass widens this equivalence property automatically.
    const uint64_t combos =
        passes::PassRegistry::instance().comboCount();
    for (uint64_t bits = 0; bits < combos; ++bits) {
        const passes::OptFlags flags = passes::OptFlags::fromMask(bits);

        auto m = build(src);
        passes::optimize(*m, flags);

        for (size_t e = 0; e < envs.size(); ++e) {
            auto got = ir::interpret(*m, envs[e]);
            ASSERT_EQ(got.discarded, want[e].discarded);
            for (const auto &[name, lanes] : want[e].outputs) {
                const auto &g = got.outputs.at(name);
                ASSERT_EQ(g.size(), lanes.size());
                for (size_t k = 0; k < lanes.size(); ++k) {
                    EXPECT_NEAR(g[k], lanes[k],
                                1e-6 * (1.0 + std::fabs(lanes[k])))
                        << "shader " << shader_idx << " flags " << bits
                        << " output " << name << "[" << k << "]";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllShaders, FlagEquivalence,
                         ::testing::Range(0, 6));

} // namespace
} // namespace gsopt
