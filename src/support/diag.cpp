#include "support/diag.h"

#include <cstdio>
#include <sstream>

namespace gsopt {

std::string
SourceLoc::str() const
{
    std::ostringstream os;
    os << line << ":" << column;
    return os.str();
}

std::string
Diagnostic::str() const
{
    const char *sev = severity == Severity::Error     ? "error"
                      : severity == Severity::Warning ? "warning"
                                                      : "note";
    std::ostringstream os;
    // Diagnostics without a source position (e.g. the tuner's
    // degenerate-baseline warning) render without the bogus "0:0:".
    if (loc.valid())
        os << loc.str() << ": ";
    os << sev << ": " << message;
    return os.str();
}

CompileError::CompileError(std::vector<Diagnostic> diags)
    : std::runtime_error(diags.empty() ? std::string("compile error")
                                       : diags.front().str()),
      diags_(std::move(diags))
{
}

void
DiagEngine::error(SourceLoc loc, std::string message)
{
    diags_.push_back({Severity::Error, loc, std::move(message)});
    ++errorCount_;
}

void
DiagEngine::warning(SourceLoc loc, std::string message)
{
    diags_.push_back({Severity::Warning, loc, std::move(message)});
    ++warningCount_;
}

void
DiagEngine::note(SourceLoc loc, std::string message)
{
    diags_.push_back({Severity::Note, loc, std::move(message)});
}

void
DiagEngine::checkpoint() const
{
    if (hasErrors())
        throw CompileError(diags_);
}

void
DiagEngine::reportWarnings() const
{
    for (const Diagnostic &d : diags_) {
        if (d.severity == Severity::Warning)
            warn(d.message, d.loc);
    }
}

void
warn(std::string message, SourceLoc loc)
{
    const Diagnostic d{Severity::Warning, loc, std::move(message)};
    std::fprintf(stderr, "%s\n", d.str().c_str());
}

std::string
DiagEngine::str() const
{
    std::ostringstream os;
    for (const auto &d : diags_)
        os << d.str() << "\n";
    return os.str();
}

} // namespace gsopt
