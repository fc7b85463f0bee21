#include "passes/util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

#include "ir/walk.h"

namespace gsopt::passes {

using ir::Instr;
using ir::Module;
using ir::Opcode;
using ir::Type;

void
forEachUse(const Module &module,
           const std::function<void(const Instr *)> &fn)
{
    ir::forEachInstr(module.body, [&fn](const Instr &i) {
        for (const Instr *op : i.operands)
            fn(op);
    });
    ir::forEachNode(const_cast<Module &>(module).body, [&fn](ir::Node &n) {
        if (auto *f = ir::dyn_cast<ir::IfNode>(&n)) {
            if (f->cond)
                fn(f->cond);
        } else if (auto *l = ir::dyn_cast<ir::LoopNode>(&n)) {
            if (l->condValue)
                fn(l->condValue);
        }
    });
}

std::unordered_map<const Instr *, int>
countUses(const Module &module)
{
    std::unordered_map<const Instr *, int> uses;
    forEachUse(module, [&uses](const Instr *v) { ++uses[v]; });
    return uses;
}

namespace {

uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h * 0xff51afd7ed558ccdull;
}

/** Type::str()'s spelling as fields: types with equal spellings (all
 * void shapes, say) compare equal, distinct spellings never do. */
struct TypeSpelling
{
    int kind;
    int count;
    int arraySize;

    bool operator==(const TypeSpelling &o) const
    {
        return kind == o.kind && count == o.count &&
               arraySize == o.arraySize;
    }
};

TypeSpelling
spellingOf(const Type &type)
{
    const Type t = type.elementType();
    const int base = t.isFloat() ? 0 : t.isInt() ? 1 : t.isBool() ? 2 : 3;
    TypeSpelling s{0, 0, type.arraySize}; // "void"
    if (t.isSampler())
        s.kind = 1;
    else if (t.isVoid())
        s.kind = 0;
    else if (t.isMatrix())
        s = {2, t.cols, type.arraySize}; // "matN"
    else if (t.isVector())
        s = {base == 3 ? 3 : 4 + base, base == 3 ? 0 : t.rows,
             type.arraySize}; // "vec?" or "vecN"/"ivecN"/"bvecN"
    else if (base != 3)
        s.kind = 7 + base; // "float"/"int"/"bool"
    return s;
}

/** Widest "%f" text of a double: 309 integer digits, sign, point, 6
 * decimals. */
constexpr size_t kLaneTextMax = 320;

size_t
laneText(double d, char (&buf)[kLaneTextMax])
{
    return static_cast<size_t>(
        std::to_chars(buf, buf + kLaneTextMax, d,
                      std::chars_format::fixed, 6)
            .ptr -
        buf);
}

/** std::to_string(a) == std::to_string(b), without allocating. */
bool
sameLaneText(double a, double b)
{
    if (std::memcmp(&a, &b, sizeof a) == 0)
        return true;
    char ta[kLaneTextMax], tb[kLaneTextMax];
    const size_t na = laneText(a, ta);
    return na == laneText(b, tb) && std::memcmp(ta, tb, na) == 0;
}

/** A hash of std::to_string(d)'s text: lanes that print alike share
 * it by construction. */
uint64_t
laneHash(double d)
{
    char buf[kLaneTextMax];
    const size_t len = laneText(d, buf);
    uint64_t h = len;
    for (size_t k = 0; k < len; k += 8) {
        uint64_t word = 0;
        std::memcpy(&word, buf + k, std::min<size_t>(8, len - k));
        h = mix(h, word);
    }
    return h;
}

} // namespace

uint64_t
ValueTable::hashOf(const Instr &instr, int version)
{
    const TypeSpelling t = spellingOf(instr.type);
    uint64_t h = mix(static_cast<uint64_t>(instr.op),
                     static_cast<uint64_t>(t.kind) << 32 |
                         static_cast<uint32_t>(t.count));
    h = mix(h, static_cast<uint32_t>(t.arraySize));
    for (const Instr *op : instr.operands)
        h = mix(h, static_cast<uint32_t>(op->id));
    h = mix(h, instr.var ? static_cast<uint64_t>(instr.var->id) : ~0ull);
    h = mix(h, static_cast<uint32_t>(version));
    for (int idx : instr.indices)
        h = mix(h, static_cast<uint32_t>(idx) | 1ull << 32);
    for (double d : instr.constData)
        h = mix(h, laneHash(d));
    return h ^ h >> 29;
}

bool
ValueTable::sameValue(const Slot &slot, const Instr &b, int version)
{
    const Instr &a = *slot.instr;
    if (slot.version != version || a.op != b.op ||
        a.operands.size() != b.operands.size() ||
        a.indices.size() != b.indices.size() ||
        (a.var == nullptr) != (b.var == nullptr) ||
        (a.var && a.var->id != b.var->id))
        return false;
    if (a.type != b.type && !(spellingOf(a.type) == spellingOf(b.type)))
        return false;
    for (size_t k = 0; k < a.operands.size(); ++k) {
        if (a.operands[k]->id != b.operands[k]->id)
            return false;
    }
    for (size_t k = 0; k < a.indices.size(); ++k) {
        if (a.indices[k] != b.indices[k])
            return false;
    }
    if (a.constData.size() != b.constData.size())
        return false;
    for (size_t k = 0; k < a.constData.size(); ++k) {
        if (!sameLaneText(a.constData[k], b.constData[k]))
            return false;
    }
    return true;
}

Instr *
ValueTable::findOrInsert(Instr &instr, int version)
{
    const uint64_t h = hashOf(instr, version);
    const size_t mask = slots_.size() - 1;
    for (size_t at = h & mask; slots_[at].instr; at = (at + 1) & mask) {
        if (slots_[at].hash == h && sameValue(slots_[at], instr, version))
            return slots_[at].instr;
    }
    log_.push_back({h, &instr, version});
    if (2 * log_.size() > slots_.size())
        grow();
    else
        place(log_.back());
    return nullptr;
}

void
ValueTable::place(const Slot &slot)
{
    const size_t mask = slots_.size() - 1;
    size_t at = slot.hash & mask;
    while (slots_[at].instr)
        at = (at + 1) & mask;
    slots_[at] = slot;
}

void
ValueTable::grow()
{
    // Re-placing the live entries in insertion order keeps the table
    // exactly as if they had been inserted into it one by one, which
    // is what lets popScope() clear slots newest first without
    // breaking a probe chain.
    slots_.assign(2 * slots_.size(), Slot{0, nullptr, 0});
    for (const Slot &s : log_)
        place(s);
}

void
ValueTable::popScope()
{
    const size_t keep = marks_.back();
    marks_.pop_back();
    const size_t mask = slots_.size() - 1;
    while (log_.size() > keep) {
        const Slot &s = log_.back();
        size_t at = s.hash & mask;
        while (slots_[at].instr != s.instr)
            at = (at + 1) & mask;
        slots_[at].instr = nullptr;
        log_.pop_back();
    }
}

Instr *
LocalBuilder::emit(Opcode op, Type type, std::vector<Instr *> operands,
                   ir::Var *var, std::vector<int> indices)
{
    Instr *instr = module_.newInstr();
    instr->op = op;
    instr->type = type;
    instr->operands = operands;
    instr->var = var;
    instr->indices = indices;
    block_.instrs.insert(block_.instrs.begin() + static_cast<long>(pos_),
                         instr);
    ++pos_;
    return instr;
}

Instr *
LocalBuilder::constFloat(double v)
{
    Instr *i = emit(Opcode::Const, Type::floatTy());
    i->constData = {v};
    return i;
}

Instr *
LocalBuilder::constSplat(Type type, double v)
{
    Instr *i = emit(Opcode::Const, type);
    i->constData.assign(static_cast<size_t>(type.componentCount()), v);
    return i;
}

Instr *
LocalBuilder::constVec(Type type, std::vector<double> lanes)
{
    Instr *i = emit(Opcode::Const, type);
    i->constData = std::move(lanes);
    return i;
}

bool
isConstSplatValue(const Instr *instr, double v)
{
    return instr && instr->op == Opcode::Const && instr->isConstValue(v);
}

std::optional<double>
splatConstValue(const Instr *instr)
{
    if (!instr)
        return std::nullopt;
    if (instr->op == Opcode::Const && instr->isSplatConst())
        return instr->scalarConst();
    if (instr->op == Opcode::Construct && instr->operands.size() == 1 &&
        instr->operands[0]->op == Opcode::Const &&
        instr->operands[0]->type.isScalar())
        return instr->operands[0]->scalarConst();
    return std::nullopt;
}

namespace {

/** An Instr's inline constant-lane list. */
using Lanes = ir::InlineVec<double, ir::kMaxInstrWidth>;

/** Broadcast-aware lane fetch. */
double
lane(const Lanes &v, size_t i)
{
    return v.size() == 1 ? v[0] : v[i];
}

std::vector<double>
componentwise2(const Lanes &a, const Lanes &b,
               double (*fn)(double, double))
{
    const size_t n = std::max(a.size(), b.size());
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = fn(lane(a, i), lane(b, i));
    return out;
}

} // namespace

std::optional<std::vector<double>>
foldConstInstr(const Instr &instr)
{
    for (const Instr *op : instr.operands) {
        if (!op || op->op != Opcode::Const)
            return std::nullopt;
    }
    auto arg = [&](size_t i) -> const Lanes & {
        return instr.operands[i]->constData;
    };
    const bool is_int = instr.type.isInt();

    auto wrap_int = [is_int](std::vector<double> v) {
        if (is_int) {
            for (double &d : v)
                d = std::trunc(d);
        }
        return v;
    };

    switch (instr.op) {
      case Opcode::Neg: {
        std::vector<double> out = arg(0);
        for (double &d : out)
            d = -d;
        return out;
      }
      case Opcode::Not: {
        std::vector<double> out = arg(0);
        for (double &d : out)
            d = d == 0.0 ? 1.0 : 0.0;
        return out;
      }
      case Opcode::Add:
        return wrap_int(componentwise2(
            arg(0), arg(1), +[](double a, double b) { return a + b; }));
      case Opcode::Sub:
        return wrap_int(componentwise2(
            arg(0), arg(1), +[](double a, double b) { return a - b; }));
      case Opcode::Mul:
        return wrap_int(componentwise2(
            arg(0), arg(1), +[](double a, double b) { return a * b; }));
      case Opcode::Div:
        if (is_int) {
            return componentwise2(arg(0), arg(1),
                                  +[](double a, double b) {
                                      return b != 0.0
                                                 ? std::trunc(a / b)
                                                 : 0.0;
                                  });
        }
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return b != 0.0 ? a / b
                            : (a == 0.0
                                   ? std::nan("")
                                   : std::copysign(
                                         std::numeric_limits<
                                             double>::infinity(),
                                         a));
        });
      case Opcode::Mod:
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return b != 0.0 ? a - b * std::floor(a / b) : 0.0;
        });
      case Opcode::Lt:
        return std::vector<double>{arg(0)[0] < arg(1)[0] ? 1.0 : 0.0};
      case Opcode::Le:
        return std::vector<double>{arg(0)[0] <= arg(1)[0] ? 1.0 : 0.0};
      case Opcode::Gt:
        return std::vector<double>{arg(0)[0] > arg(1)[0] ? 1.0 : 0.0};
      case Opcode::Ge:
        return std::vector<double>{arg(0)[0] >= arg(1)[0] ? 1.0 : 0.0};
      case Opcode::Eq: {
        bool eq = arg(0) == arg(1);
        return std::vector<double>{eq ? 1.0 : 0.0};
      }
      case Opcode::Ne: {
        bool ne = arg(0) != arg(1);
        return std::vector<double>{ne ? 1.0 : 0.0};
      }
      case Opcode::LogicalAnd:
        return std::vector<double>{
            arg(0)[0] != 0.0 && arg(1)[0] != 0.0 ? 1.0 : 0.0};
      case Opcode::LogicalOr:
        return std::vector<double>{
            arg(0)[0] != 0.0 || arg(1)[0] != 0.0 ? 1.0 : 0.0};
      case Opcode::Sin:
      case Opcode::Cos:
      case Opcode::Tan:
      case Opcode::Asin:
      case Opcode::Acos:
      case Opcode::Atan:
      case Opcode::Exp:
      case Opcode::Log:
      case Opcode::Exp2:
      case Opcode::Log2:
      case Opcode::Sqrt:
      case Opcode::InvSqrt:
      case Opcode::Abs:
      case Opcode::Sign:
      case Opcode::Floor:
      case Opcode::Ceil:
      case Opcode::Fract:
      case Opcode::Radians:
      case Opcode::Degrees: {
        std::vector<double> out = arg(0);
        for (double &d : out) {
            switch (instr.op) {
              case Opcode::Sin: d = std::sin(d); break;
              case Opcode::Cos: d = std::cos(d); break;
              case Opcode::Tan: d = std::tan(d); break;
              case Opcode::Asin: d = std::asin(d); break;
              case Opcode::Acos: d = std::acos(d); break;
              case Opcode::Atan: d = std::atan(d); break;
              case Opcode::Exp: d = std::exp(d); break;
              case Opcode::Log: d = std::log(d); break;
              case Opcode::Exp2: d = std::exp2(d); break;
              case Opcode::Log2: d = std::log2(d); break;
              case Opcode::Sqrt: d = std::sqrt(d); break;
              case Opcode::InvSqrt: d = 1.0 / std::sqrt(d); break;
              case Opcode::Abs: d = std::fabs(d); break;
              case Opcode::Sign:
                d = d > 0.0 ? 1.0 : d < 0.0 ? -1.0 : 0.0;
                break;
              case Opcode::Floor: d = std::floor(d); break;
              case Opcode::Ceil: d = std::ceil(d); break;
              case Opcode::Fract: d = d - std::floor(d); break;
              case Opcode::Radians: d = d * M_PI / 180.0; break;
              case Opcode::Degrees: d = d * 180.0 / M_PI; break;
              default: break;
            }
        }
        return out;
      }
      case Opcode::Atan2:
        return componentwise2(arg(0), arg(1), +[](double y, double x) {
            return std::atan2(y, x);
        });
      case Opcode::Pow:
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return std::pow(a, b);
        });
      case Opcode::Min:
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return std::min(a, b);
        });
      case Opcode::Max:
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return std::max(a, b);
        });
      case Opcode::Step:
        return componentwise2(arg(0), arg(1), +[](double e, double x) {
            return x < e ? 0.0 : 1.0;
        });
      case Opcode::Dot: {
        double sum = 0.0;
        for (size_t i = 0; i < arg(0).size(); ++i)
            sum += arg(0)[i] * lane(arg(1), i);
        return std::vector<double>{sum};
      }
      case Opcode::Length: {
        double sum = 0.0;
        for (double d : arg(0))
            sum += d * d;
        return std::vector<double>{std::sqrt(sum)};
      }
      case Opcode::Distance: {
        double sum = 0.0;
        for (size_t i = 0; i < arg(0).size(); ++i) {
            double d = arg(0)[i] - lane(arg(1), i);
            sum += d * d;
        }
        return std::vector<double>{std::sqrt(sum)};
      }
      case Opcode::Normalize: {
        double sum = 0.0;
        for (double d : arg(0))
            sum += d * d;
        double len = std::sqrt(sum);
        std::vector<double> out = arg(0);
        if (len > 0.0) {
            for (double &d : out)
                d /= len;
        }
        return out;
      }
      case Opcode::Cross: {
        const auto &a = arg(0);
        const auto &b = arg(1);
        return std::vector<double>{a[1] * b[2] - a[2] * b[1],
                                   a[2] * b[0] - a[0] * b[2],
                                   a[0] * b[1] - a[1] * b[0]};
      }
      case Opcode::Clamp: {
        std::vector<double> out = arg(0);
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = std::min(std::max(out[i], lane(arg(1), i)),
                              lane(arg(2), i));
        return out;
      }
      case Opcode::Mix: {
        std::vector<double> out = arg(0);
        for (size_t i = 0; i < out.size(); ++i) {
            double t = lane(arg(2), i);
            out[i] = out[i] * (1.0 - t) + lane(arg(1), i) * t;
        }
        return out;
      }
      case Opcode::Smoothstep: {
        std::vector<double> out = arg(2);
        for (size_t i = 0; i < out.size(); ++i) {
            double e0 = lane(arg(0), i), e1 = lane(arg(1), i);
            double t = e1 != e0 ? (out[i] - e0) / (e1 - e0) : 0.0;
            t = std::min(std::max(t, 0.0), 1.0);
            out[i] = t * t * (3.0 - 2.0 * t);
        }
        return out;
      }
      case Opcode::Select: {
        return instr.operands[0]->scalarConst() != 0.0
                   ? arg(1)
                   : arg(2);
      }
      case Opcode::Construct: {
        std::vector<double> out;
        for (const Instr *op : instr.operands)
            out.insert(out.end(), op->constData.begin(),
                       op->constData.end());
        const size_t want =
            static_cast<size_t>(instr.type.componentCount());
        if (out.size() == 1 && want > 1)
            out.assign(want, out[0]); // splat
        if (out.size() != want)
            return std::nullopt;
        // int(x) truncates toward zero (GLSL 4.4.0 §4.1.10). Construct
        // is also the IR's conversion op, so this is where fractional
        // values must die: the interpreter truncates here too, and the
        // int-arithmetic wrap_int below only ever sees integral lanes.
        return wrap_int(std::move(out));
      }
      case Opcode::Extract:
        return std::vector<double>{
            arg(0)[static_cast<size_t>(instr.indices[0])]};
      case Opcode::Insert: {
        std::vector<double> out = arg(0);
        out[static_cast<size_t>(instr.indices[0])] = arg(1)[0];
        return out;
      }
      case Opcode::Swizzle: {
        std::vector<double> out;
        for (int idx : instr.indices)
            out.push_back(arg(0)[static_cast<size_t>(idx)]);
        return out;
      }
      default:
        return std::nullopt;
    }
}

} // namespace gsopt::passes
