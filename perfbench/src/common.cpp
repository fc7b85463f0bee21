#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include "support/rng.h"

namespace perfbench {

namespace fs = std::filesystem;

void
Outcome::fail(const std::string &why)
{
    correct = false;
    if (++mismatches <= 20)
        std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
}

std::string
Outcome::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    bool first = true;
    for (const Metric &m : metrics) {
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        out += first ? "" : ", ";
        out += "\"" + jsonEscape(m.name) + "\": {\"value\": " + buf +
               ", \"unit\": \"" + jsonEscape(m.unit) + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::map<std::string, std::string>
dirBytes(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream f(entry.path(), std::ios::binary);
        out[entry.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(f),
                        std::istreambuf_iterator<char>());
    }
    return out;
}

std::string
firstDifference(const std::map<std::string, std::string> &a,
                const std::map<std::string, std::string> &b)
{
    if (a.size() != b.size())
        return "file count " + std::to_string(a.size()) + " vs " +
               std::to_string(b.size());
    for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
        if (ia->first != ib->first)
            return "file " + ia->first + " vs " + ib->first;
        if (ia->second != ib->second)
            return "bytes of " + ia->first;
    }
    return "";
}

// ---- MD5 (RFC 1321) -----------------------------------------------------

namespace {

uint32_t
rotl(uint32_t x, int c)
{
    return (x << c) | (x >> (32 - c));
}

} // namespace

std::string
md5Hex(const std::string &data)
{
    static const uint32_t K[64] = {
        0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf,
        0x4787c62a, 0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af,
        0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e,
        0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
        0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6,
        0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
        0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
        0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
        0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039,
        0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244, 0x432aff97,
        0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d,
        0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
        0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};
    static const int S[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17,
                              22, 7, 12, 17, 22, 5, 9,  14, 20, 5, 9,
                              14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 4,
                              11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                              4, 11, 16, 23, 6, 10, 15, 21, 6, 10, 15,
                              21, 6, 10, 15, 21, 6, 10, 15, 21};
    std::string msg = data;
    const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
    msg += static_cast<char>(0x80);
    while (msg.size() % 64 != 56)
        msg += '\0';
    for (int i = 0; i < 8; ++i)
        msg += static_cast<char>((bits >> (8 * i)) & 0xff);

    uint32_t h[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
    for (size_t off = 0; off < msg.size(); off += 64) {
        uint32_t w[16];
        for (int i = 0; i < 16; ++i) {
            const auto *p = reinterpret_cast<const unsigned char *>(
                msg.data() + off + 4 * i);
            w[i] = p[0] | (p[1] << 8) | (p[2] << 16) |
                   (static_cast<uint32_t>(p[3]) << 24);
        }
        uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
        for (int i = 0; i < 64; ++i) {
            uint32_t f;
            int g;
            if (i < 16) {
                f = (b & c) | (~b & d);
                g = i;
            } else if (i < 32) {
                f = (d & b) | (~d & c);
                g = (5 * i + 1) % 16;
            } else if (i < 48) {
                f = b ^ c ^ d;
                g = (3 * i + 5) % 16;
            } else {
                f = c ^ (b | ~d);
                g = (7 * i) % 16;
            }
            const uint32_t tmp = d;
            d = c;
            c = b;
            b = b + rotl(a + f + K[i] + w[g], S[i]);
            a = tmp;
        }
        h[0] += a;
        h[1] += b;
        h[2] += c;
        h[3] += d;
    }
    char out[33];
    for (int i = 0; i < 16; ++i)
        std::snprintf(out + 2 * i, 3, "%02x",
                      (h[i / 4] >> (8 * (i % 4))) & 0xff);
    return std::string(out, 32);
}

// ---- process facts ------------------------------------------------------

void
resetPeakRss()
{
    // Hand freed heap back first, so the new mark starts from live
    // memory rather than from what earlier iterations left cached.
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
selfPeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

double
childPeakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<gsopt::corpus::CorpusShader>
permutedCorpus(uint64_t seed)
{
    std::vector<gsopt::corpus::CorpusShader> out = gsopt::corpus::corpus();
    gsopt::Rng rng(gsopt::hashCombine(seed, 0x70e7b3c4ull));
    for (size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[rng.below(i)]);
    return out;
}

const std::string &
scratchRoot()
{
    static const std::string root = [] {
        const fs::path p = fs::temp_directory_path() /
                           ("perfbench-" + std::to_string(::getpid()));
        fs::remove_all(p);
        fs::create_directories(p);
        return p.string();
    }();
    return root;
}

std::string
freshScratchDir(const std::string &tag)
{
    static int counter = 0;
    const fs::path p =
        fs::path(scratchRoot()) / (tag + "-" + std::to_string(counter++));
    fs::create_directories(p);
    return p.string();
}

} // namespace perfbench
