"""The trace catalog: 49 synthetic stand-ins for the paper's 49 traces.

The original traces (Section 2) were donations from Amdahl, SLAC, Zilog,
Signetics and Berkeley and are not available; per the substitution rule in
DESIGN.md each is replaced by a :class:`~repro.workloads.parameters.
WorkloadParameters` entry calibrated to everything the paper publishes about
it: machine architecture, source language, program type, reference mix,
footprints (Table 2 group averages), branch frequency, and the per-group
miss-ratio anchors of Section 3.1 (e.g. 1.7% at 1K for the M68000 toys,
3.1% for the Z8000 utilities, ~4.8% for the non-Lisp VAX traces, ~17% for
the 370/360 batch programs, with the MVS traces worst of all).

Trace names marked below with ``reconstructed=True`` in their description
do not appear in the portion of the paper available to us (the per-trace
rows of Tables 1-2 were cut); they are plausible members of the stated
groups (e.g. additional ported-Unix utilities for the Z8000).  Counts per
architecture match the paper: 10 IBM 370, 4 IBM 360/91, 5 CDC 6400,
4 M68000, 12 Z8000 and 14 VAX entries (the LISP compiler and VAXIMA each
traced in five sections), 49 in all — 57 rows when the sections are listed
separately as in Table 1.
"""

from __future__ import annotations

import functools

from ..trace.memo import TRACE_MEMO
from ..trace.store import TraceStore
from ..trace.stream import Trace
from .architectures import make_parameters, profile
from .generator import SyntheticWorkload, trace_identity
from .parameters import CodeModel, DataModel, WorkloadParameters

__all__ = [
    "DEFAULT_TRACE_LENGTH",
    "names",
    "table1_names",
    "get",
    "generate",
    "trace_digest",
    "default_length",
    "groups",
    "group_of",
    "MULTIPROGRAMMING_MIXES",
]

#: The paper's standard trace-run length ("most are for 250,000 memory
#: references").
DEFAULT_TRACE_LENGTH = 250_000

#: The M68000 traces are "four short traces".
SHORT_TRACE_LENGTH = 100_000


def _entry(
    arch: str,
    name: str,
    language: str,
    description: str,
    seed: int,
    *,
    code_kb: float,
    data_kb: float,
    iters: float,
    skew: float,
    procs: int | None = None,
    loop_p: float = 0.06,
    call_p: float = 0.02,
    body: float | None = None,
    stack: float = 0.30,
    seq: float = 0.30,
    run: float = 32.0,
    arrays: int = 12,
    code_phase: int = 0,
    data_phase: int = 0,
    write: float = 0.33,
    skip: float = 0.02,
    pskew: float = 2.0,
    writable: float = 0.5,
    loop_call: float = 0.0,
) -> WorkloadParameters:
    """Build one catalog entry from an architecture profile and program knobs."""
    arch_profile = profile(arch)
    code_bytes = int(code_kb * 1024)
    data_bytes = int(data_kb * 1024)
    code = CodeModel(
        footprint_bytes=code_bytes,
        instruction_bytes=arch_profile.instruction_bytes,
        procedure_count=procs if procs is not None else max(8, code_bytes // 512),
        procedure_skew=pskew,
        loop_start_probability=loop_p,
        mean_loop_body=body if body is not None else arch_profile.mean_loop_body,
        mean_loop_iterations=iters,
        call_probability=call_p,
        loop_call_probability=loop_call,
        short_jump_probability=skip,
        phase_instructions=code_phase,
    )
    data = DataModel(
        footprint_bytes=data_bytes,
        access_bytes=arch_profile.data_bytes,
        write_fraction=write,
        writable_fraction=writable,
        stack_fraction=stack,
        sequential_fraction=seq,
        mean_sequential_run=run,
        sequential_streams=3,
        sequential_arrays=arrays,
        working_set_skew=skew,
        phase_interval=data_phase,
    )
    return make_parameters(arch, name, language, description, seed, code, data)


# ---------------------------------------------------------------------------
# Program-class presets.  Each catalog entry starts from one of these and
# overrides what the paper says about the specific program.
# ---------------------------------------------------------------------------

#: Tiny, tightly coded programs (M68000 Pascal examples, VPUZZLE, VTOWERS).
_TOY = dict(
    code_kb=0.9, data_kb=0.9, iters=42.0, skew=1.5, procs=8,
    loop_p=0.07, loop_call=0.003, call_p=0.008, stack=0.40, seq=0.30, run=40.0, arrays=4,
)
#: Small Unix utilities ported to the Z8000 / traced on the VAX.
_UTILITY = dict(
    code_kb=7.0, data_kb=4.5, iters=75.0, skew=1.55, procs=24,
    loop_p=0.07, call_p=0.015, loop_call=0.004, stack=0.38, seq=0.34, run=48.0, arrays=8,
    code_phase=1200, data_phase=400,
)
#: The Z8000 flavour of the utility preset: the paper's Z8000 programs
#: miss a bit more than their VAX counterparts relative to their size.
_Z_UTILITY = dict(_UTILITY, skew=1.42, iters=40.0, writable=0.48,
                  code_kb=7.0, data_kb=4.5,
                  code_phase=700, data_phase=700, procs=40)
#: CDC 6400 Fortran jobs write most of their arrays (Table 3: 0.80).
_CDC_WRITABLE = 0.85
#: Numeric batch jobs (Fortran Go on the 370/6400, VSPICE, VTWOD).
_NUMERIC = dict(
    code_kb=14.0, data_kb=28.0, iters=170.0, skew=1.5, procs=32,
    loop_p=0.06, call_p=0.012, loop_call=0.006, stack=0.24, seq=0.48, run=96.0, arrays=12,
    code_phase=2000, data_phase=70,
)
#: Business batch (Cobol Go): record processing, lots of data movement.
_BUSINESS = dict(
    code_kb=16.0, data_kb=30.0, iters=40.0, skew=1.28, procs=64,
    loop_p=0.05, call_p=0.02, loop_call=0.010, stack=0.20, seq=0.40, run=28.0, arrays=24,
    code_phase=1100, data_phase=60, write=0.42,
)
#: Compilers (FCOMP, CCOMP, WATFIV, VCCOM): big, mature, branchy code
#: walking many small structures.
_COMPILER = dict(
    code_kb=26.0, data_kb=26.0, iters=14.0, skew=1.26, procs=96,
    loop_p=0.045, call_p=0.035, loop_call=0.018, stack=0.30, seq=0.22, run=14.0, arrays=32,
    code_phase=800, data_phase=70,
)
#: Interpreters (APL, LISP systems): medium code, large heap, pointer-rich.
_INTERPRETER = dict(
    code_kb=15.0, data_kb=44.0, iters=55.0, skew=1.34, procs=72,
    loop_p=0.05, call_p=0.03, loop_call=0.014, stack=0.30, seq=0.15, run=12.0, arrays=40,
    code_phase=2000, data_phase=400,
)
#: Operating system (MVS): "the world's largest operating system, which is
#: known to have poor locality."
_OS = dict(
    code_kb=44.0, data_kb=52.0, iters=5.0, skew=1.35, procs=176,
    loop_p=0.03, call_p=0.06, loop_call=0.025, stack=0.15, seq=0.18, run=10.0, arrays=48,
    code_phase=1200, data_phase=40, write=0.36, pskew=1.2,
)


def _build_registry() -> dict[str, WorkloadParameters]:
    entries: list[WorkloadParameters] = []
    add = entries.append

    # -- IBM 370 (Amdahl donation): large batch programs and MVS ------------
    add(_entry("ibm370", "FGO1", "Fortran",
               "Fortran Go step of a large scientific batch job.", 3701,
               **{**_NUMERIC, "code_kb": 13.0, "data_kb": 26.0, "iters": 90.0, "skew": 1.35,
                  "data_phase": 35, "writable": 0.58}))
    add(_entry("ibm370", "FGO2", "Fortran",
               "Fortran Go step of a second scientific batch job.", 3702,
               **{**_NUMERIC, "code_kb": 17.0, "data_kb": 32.0, "iters": 120.0,
                  "skew": 1.38, "data_phase": 40, "writable": 0.40}))
    add(_entry("ibm370", "FGO3", "Fortran",
               "Fortran Go step of a third scientific batch job (reconstructed).",
               3703, **{**_NUMERIC, "code_kb": 11.0, "data_kb": 22.0,
                        "iters": 80.0, "skew": 1.4, "data_phase": 35,
                        "writable": 0.52}))
    add(_entry("ibm370", "CGO1", "Cobol",
               "Cobol Go step: business record processing; small amount of "
               "code manipulating a large data space.", 3704,
               **{**_BUSINESS, "code_kb": 9.0, "data_kb": 36.0, "writable": 0.30}))
    add(_entry("ibm370", "CGO2", "Cobol",
               "Cobol Go step of a second business job.", 3705,
               **{**_BUSINESS, "code_kb": 12.0, "data_kb": 42.0, "iters": 30.0,
                  "writable": 0.38}))
    add(_entry("ibm370", "CGO3", "Cobol",
               "Cobol Go step of a third business job (reconstructed).", 3706,
               **{**_BUSINESS, "code_kb": 14.0, "data_kb": 30.0, "skew": 1.4,
                  "writable": 0.44}))
    add(_entry("ibm370", "FCOMP1", "370 Assembler",
               "Fortran compilation: the compiler is a large, mature piece "
               "of software.", 3707,
               **{**_COMPILER, "code_kb": 30.0, "data_kb": 24.0, "iters": 26.0,
                  "writable": 0.68}))
    add(_entry("ibm370", "CCOMP1", "370 Assembler",
               "Cobol compilation by a large production compiler.", 3708,
               **{**_COMPILER, "code_kb": 34.0, "data_kb": 28.0, "iters": 22.0,
                  "write": 0.24, "writable": 0.24}))
    add(_entry("ibm370", "MVS1", "370 Assembler",
               "IBM MVS operating system, first section: close to the worst "
               "cache behaviour likely to be observed.", 3709, **{**_OS, "writable": 0.48}))
    add(_entry("ibm370", "MVS2", "370 Assembler",
               "IBM MVS operating system, second section.", 3710,
               **{**_OS, "code_kb": 48.0, "data_kb": 56.0, "iters": 4.5,
                  "skew": 1.33, "code_phase": 1100, "data_phase": 35,
                  "writable": 0.60}))

    # -- IBM 360/91 (SLAC donation) ------------------------------------------
    add(_entry("ibm360_91", "WATEX", "Fortran",
               "Execution of a combinatorial search routine compiled with "
               "the Watfiv Fortran compiler.", 3601,
               **{**_NUMERIC, "code_kb": 14.0, "data_kb": 18.0, "iters": 50.0,
                  "skew": 1.33, "data_phase": 35}))
    add(_entry("ibm360_91", "WATFIV", "370 Assembler",
               "Watfiv Fortran compilation of the WATEX program; the "
               "compiler is large and mature.", 3602,
               **{**_COMPILER, "code_kb": 20.0, "data_kb": 16.0, "iters": 10.0,
                  "data_phase": 30}))
    add(_entry("ibm360_91", "APL", "370 Assembler",
               "APL interpreter doing plots at a terminal.", 3603,
               **{**_INTERPRETER, "code_kb": 16.0, "data_kb": 24.0, "iters": 22.0,
                  "skew": 1.30, "data_phase": 40}))
    add(_entry("ibm360_91", "FFT", "AlgolW",
               "FFT programs written in Algol, compiled with the AlgolW "
               "compiler (which produces poor code).", 3604,
               **{**_NUMERIC, "code_kb": 12.0, "data_kb": 20.0, "iters": 40.0,
                  "skew": 1.35, "call_p": 0.02, "data_phase": 35}))

    # -- CDC 6400 (John Lee's traces): Fortran Go, 60-bit words --------------
    add(_entry("cdc6400", "TWOD", "Fortran",
               "Two-dimensional scattering problem of an infinite circular "
               "cylinder (Fortran Go).", 6401,
               **{**_NUMERIC, "code_kb": 7.0, "data_kb": 14.0, "iters": 150.0,
                  "skew": 1.7, "run": 48.0, "skip": 0.008, "call_p": 0.008,
                  "loop_call": 0.001, "writable": _CDC_WRITABLE}))
    add(_entry("cdc6400", "PPAS", "Fortran",
               "Start-up portion of a phase-plane analysis program solving "
               "two simultaneous differential equations.", 6402,
               **{**_NUMERIC, "code_kb": 8.0, "data_kb": 12.0, "iters": 60.0,
                  "skew": 1.5, "seq": 0.35, "skip": 0.008, "call_p": 0.008,
                  "loop_call": 0.001, "writable": _CDC_WRITABLE}))
    add(_entry("cdc6400", "PPAL", "Fortran",
               "Same program as PPAS, traced after it had settled into its "
               "iteration loops.", 6403,
               **{**_NUMERIC, "code_kb": 5.0, "data_kb": 10.0, "iters": 260.0,
                  "skew": 2.0, "skip": 0.008, "call_p": 0.008,
                  "loop_call": 0.001, "writable": _CDC_WRITABLE}))
    add(_entry("cdc6400", "DIPOLE", "Fortran",
               "Three-dimensional scattering problem for a cube via the "
               "dipole approximation (Fortran Go).", 6404,
               **{**_NUMERIC, "code_kb": 9.0, "data_kb": 16.0, "iters": 130.0,
                  "skew": 1.65, "skip": 0.008, "call_p": 0.008,
                  "loop_call": 0.001, "writable": _CDC_WRITABLE}))
    add(_entry("cdc6400", "MOTIS", "Fortran",
               "MOS circuit analysis program (Fortran Go).", 6405,
               **{**_NUMERIC, "code_kb": 10.0, "data_kb": 18.0, "iters": 110.0,
                  "skew": 1.55, "arrays": 20, "skip": 0.008, "call_p": 0.008,
                  "loop_call": 0.001, "writable": _CDC_WRITABLE}))

    # -- Motorola 68000 (Signetics hardware monitor): Pascal toys ------------
    add(_entry("m68000", "PLO", "Pascal",
               "The PL/0 compiler from Wirth, 'Algorithms + Data Structures "
               "= Programs'.", 6801,
               **{**_TOY, "code_kb": 2.0, "data_kb": 1.4, "iters": 100.0,
                  "call_p": 0.02}))
    add(_entry("m68000", "MATCH", "Pascal",
               "Pattern matching program from Kernighan and Plauger, "
               "'Software Tools in Pascal'.", 6802,
               **{**_TOY, "code_kb": 1.4, "data_kb": 1.0, "iters": 180.0}))
    add(_entry("m68000", "SORT", "Pascal",
               "Quicksort.", 6803,
               **{**_TOY, "code_kb": 1.0, "data_kb": 1.6, "iters": 120.0,
                  "seq": 0.45, "stack": 0.35}))
    add(_entry("m68000", "STAT", "Pascal",
               "Trace statistics program.", 6804,
               **{**_TOY, "code_kb": 1.6, "data_kb": 1.1, "iters": 140.0}))

    # -- Zilog Z8000: utilities from the PDP-11-ported Unix ------------------
    z8000 = [
        ("ZVI", "Screen editor vi.", dict(code_kb=9.0, data_kb=3.2, iters=50.0)),
        ("ZGREP", "Text search utility grep.",
         dict(code_kb=5.5, data_kb=2.0, iters=90.0, seq=0.40)),
        ("ZPR", "Print formatting utility pr.",
         dict(code_kb=6.0, data_kb=2.2, iters=70.0, seq=0.38)),
        ("ZOD", "Octal dump utility od.",
         dict(code_kb=5.0, data_kb=2.0, iters=110.0, seq=0.42)),
        ("ZSORT", "Sort utility.",
         dict(code_kb=7.0, data_kb=3.5, iters=60.0, seq=0.40)),
        ("ZCC", "C compiler first pass (reconstructed).",
         dict(code_kb=11.0, data_kb=4.0, iters=25.0, skew=1.45, call_p=0.03)),
        ("ZNM", "Symbol-table lister nm (reconstructed).",
         dict(code_kb=5.5, data_kb=2.2, iters=80.0)),
        ("ZED", "Line editor ed (reconstructed).",
         dict(code_kb=7.5, data_kb=2.5, iters=55.0)),
        ("ZWC", "Word-count utility wc (reconstructed).",
         dict(code_kb=3.5, data_kb=1.4, iters=150.0, seq=0.45)),
        ("ZCAT", "File concatenation cat (reconstructed).",
         dict(code_kb=3.0, data_kb=1.6, iters=160.0, seq=0.50)),
        ("ZAWK", "Pattern scanning language awk (reconstructed).",
         dict(code_kb=10.0, data_kb=4.0, iters=35.0, skew=1.5, call_p=0.03)),
        ("ZLS", "Directory lister ls (reconstructed).",
         dict(code_kb=5.0, data_kb=2.0, iters=75.0)),
    ]
    for index, (name, blurb, tweaks) in enumerate(z8000):
        add(_entry("z8000", name, "C",
                   f"{blurb} Unix utility traced on the Z8000; small code "
                   "and data, an unsophisticated C compiler.",
                   8001 + index, **{**_Z_UTILITY, **tweaks}))

    # -- VAX 11/780 (Berkeley, under Unix) ------------------------------------
    add(_entry("vax", "VCCOM", "C",
               "C compilation (the portable C compiler).", 7801,
               **{**_COMPILER, "code_kb": 20.0, "data_kb": 14.0, "iters": 46.0,
                  "skew": 1.55, "stack": 0.35, "writable": 0.68}))
    add(_entry("vax", "VSPICE", "Fortran",
               "SPICE circuit simulation.", 7802,
               **{**_NUMERIC, "code_kb": 14.0, "data_kb": 30.0, "iters": 250.0,
                  "skew": 1.8, "writable": 0.34}))
    add(_entry("vax", "VTWOD", "Fortran",
               "Two-dimensional scattering code, VAX version.", 7803,
               **{**_NUMERIC, "code_kb": 10.0, "data_kb": 22.0, "iters": 260.0,
                  "skew": 1.85, "writable": 0.50}))
    add(_entry("vax", "VPUZZLE", "C",
               "Puzzle-solving toy benchmark.", 7804,
               **{**_TOY, "code_kb": 2.0, "data_kb": 2.4, "iters": 130.0,
                  "writable": 0.88}))
    add(_entry("vax", "VTOWERS", "C",
               "Towers of Hanoi toy benchmark.", 7805,
               **{**_TOY, "code_kb": 1.2, "data_kb": 1.8, "iters": 90.0,
                  "call_p": 0.05, "stack": 0.55, "seq": 0.15}))
    add(_entry("vax", "VQSORT", "C",
               "Quicksort utility.", 7806,
               **{**_UTILITY, "code_kb": 3.5, "data_kb": 6.0, "iters": 70.0,
                  "seq": 0.40, "stack": 0.30}))
    add(_entry("vax", "VMERGE", "C",
               "Merge sort over large records; few instructions touching a "
               "large data space.", 7807,
               **{**_UTILITY, "code_kb": 4.0, "data_kb": 18.0, "iters": 95.0,
                  "seq": 0.48, "arrays": 20, "run": 96.0}))
    add(_entry("vax", "VTROFF", "C",
               "Text formatter troff.", 7808,
               **{**_COMPILER, "code_kb": 16.0, "data_kb": 12.0, "iters": 48.0,
                  "skew": 1.5, "stack": 0.35, "writable": 0.24}))
    add(_entry("vax", "VGREP", "C",
               "Text search utility grep, VAX version (reconstructed).", 7809,
               **{**_UTILITY, "code_kb": 5.0, "data_kb": 3.5, "iters": 85.0,
                  "seq": 0.40}))
    add(_entry("vax", "VOD", "C",
               "Octal dump utility od, VAX version (reconstructed).", 7810,
               **{**_UTILITY, "code_kb": 4.5, "data_kb": 3.5, "iters": 100.0,
                  "seq": 0.42}))
    add(_entry("vax", "VCOMPACT", "C",
               "Huffman file compressor (reconstructed).", 7811,
               **{**_UTILITY, "code_kb": 7.0, "data_kb": 11.0, "iters": 72.0,
                  "seq": 0.36}))
    add(_entry("vax", "VDC", "C",
               "Desk calculator dc (reconstructed).", 7812,
               **{**_UTILITY, "code_kb": 6.0, "data_kb": 4.0, "iters": 45.0,
                  "stack": 0.42}))

    # LISP compiler, five sections: large heap, pointer chasing; the paper
    # reports (11.1, 5.5, 2.4, 1.55)% at (1K, 4K, 16K, 64K).
    for section in range(1, 6):
        add(_entry("vax", f"LISP{section}", "LISP",
                   f"Franz Lisp compiler, trace section {section} of 5.",
                   7820 + section,
                   **{**_INTERPRETER,
                      "code_kb": 14.0 + section, "data_kb": 40.0 + 2 * section,
                      "iters": 50.0 + 2 * section, "skew": 1.34, "body": 7.5,
                      "write": 0.30, "writable": 0.24}))
    # VAXIMA (Macsyma on the VAX), five sections: small amounts of code
    # manipulating large amounts of data.
    for section in range(1, 6):
        add(_entry("vax", f"VAXIMA{section}", "LISP",
                   f"VAXIMA (Macsyma) symbolic algebra, trace section "
                   f"{section} of 5.", 7830 + section,
                   **{**_INTERPRETER,
                      "code_kb": 10.0 + section, "data_kb": 46.0 + 2 * section,
                      "iters": 46.0 + 3 * section, "skew": 1.33, "body": 7.5,
                      "write": 0.28, "writable": 0.21}))

    registry = {params.name: params for params in entries}
    if len(registry) != len(entries):
        raise AssertionError("duplicate trace names in catalog")
    return registry


_REGISTRY: dict[str, WorkloadParameters] = _build_registry()

#: Table 3's multiprogramming mixes: "the traces were run through the
#: simulator in a round robin manner, switching and purging every 20,000
#: memory references."
MULTIPROGRAMMING_MIXES: dict[str, list[str]] = {
    "LISP Compiler - 5 Sections": [f"LISP{i}" for i in range(1, 6)],
    "VAXIMA - 5 Sections": [f"VAXIMA{i}" for i in range(1, 6)],
    "Z8000 - Assorted": ["ZVI", "ZGREP", "ZPR", "ZOD", "ZSORT"],
    "CDC 6400 - Assorted": ["TWOD", "PPAS", "PPAL", "DIPOLE", "MOTIS"],
}


def names() -> list[str]:
    """All concrete catalog trace names.

    There are 57: the paper's 49 traces, with the LISP compiler and VAXIMA
    each split into their five trace sections (exactly how Table 1 lists
    them).
    """
    return list(_REGISTRY)


def table1_names() -> list[str]:
    """The 57 rows of Table 1 — alias of :func:`names`."""
    return list(_REGISTRY)


def get(name: str) -> WorkloadParameters:
    """Parameters of one catalog trace.

    Raises:
        KeyError: for an unknown trace name.
    """
    return _REGISTRY[name]


def default_length(name: str) -> int:
    """Trace length used by the paper's experiments for this trace."""
    if get(name).architecture == "Motorola 68000":
        return SHORT_TRACE_LENGTH
    return DEFAULT_TRACE_LENGTH


#: The process-wide trace memo (:mod:`repro.trace.memo`).  Catalog
#: traces are keyed by :func:`trace_digest`, so ``generate("FGO1")`` and
#: ``generate("FGO1", 250_000)`` share one entry.
_MEMO = TRACE_MEMO


@functools.lru_cache(maxsize=1024)
def trace_digest(name: str, length: int | None = None) -> str:
    """Content digest of the catalog trace ``(name, length)``.

    The SHA-256 of its :func:`~repro.workloads.generator.trace_identity`
    document (every parameter, the length and the generator version) —
    the key the trace store files it under.  Memoized per ``(name,
    length)``: the catalog does not change while a process runs.

    Raises:
        KeyError: for an unknown trace name.
    """
    if length is None:
        length = default_length(name)
    return TraceStore.key_for(trace_identity(get(name), length))


def generate(name: str, length: int | None = None) -> Trace:
    """Generate (and memoize) a catalog trace.

    Repeated calls return the same object while the process-wide trace
    memo (:mod:`repro.trace.memo`) holds it, keyed by the trace's content
    digest (:func:`trace_digest`).  With ``REPRO_TRACE_STORE`` set, misses
    resolve through the shared content-addressed
    :class:`~repro.trace.store.TraceStore`: the first process to ask for a
    given trace generates and stores it once, and every other process
    memory-maps that file instead of regenerating — the arrays are then
    read-only views of pages shared across all workers.

    Args:
        name: a catalog trace name.
        length: trace length in references; defaults to the paper's length
            for that trace (:func:`default_length`).

    Raises:
        KeyError: for an unknown trace name.
    """
    params = get(name)
    if length is None:
        length = default_length(name)

    def build() -> Trace:
        store = TraceStore.from_env()
        if store is None:
            return SyntheticWorkload(params).generate(length)
        trace, _hit = store.get_or_create(
            trace_identity(params, length),
            lambda: SyntheticWorkload(params).generate(length),
        )
        return trace

    return _MEMO.get(trace_digest(name, length), build)


def groups() -> dict[str, list[str]]:
    """Catalog traces grouped the way the paper reports averages.

    The VAX entries are split into Lisp and non-Lisp, matching Section 3.1
    ("The VAX programs, except those written in LISP, average...").
    """
    grouped: dict[str, list[str]] = {}
    for name in _REGISTRY:
        grouped.setdefault(group_of(name), []).append(name)
    return grouped


def group_of(name: str) -> str:
    """Reporting group of one trace (architecture, with VAX split by Lisp)."""
    params = get(name)
    if params.architecture == "VAX 11/780":
        return "VAX (Lisp)" if params.language == "LISP" else "VAX (non-Lisp)"
    return params.architecture
