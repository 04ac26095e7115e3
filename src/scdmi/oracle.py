"""Brute-force multi-point reference for core integrals and invariants.

Cores are evaluated literally as nested sums over all tuples of masked
pixels, one index per integration point. No moment factorization is
involved, so agreement with the polynomial path validates the symbolic
expansion end to end. Centering and the degeneracy floor are shared with
the engine so that discrepancies isolate the expansion logic.

A core of t points is contracted to a scalar with one subscript per point
and one operand per factor: the w x w shape primitive or the w x w x w
colour determinant, raised to the factor's power, over the factor's own
points, and a vector of ones for each point no factor holds. Numpy's greedy
path (``np.einsum_path``, after opt_einsum) becomes, once per core and
domain size on first use, a list of steps; each contracts two operands (a
lone operand, in a one-factor core) to the points they share with the
operands left. A step that sums a point both its operands hold and keeps
a point runs as one ``np.matmul``, a BLAS product, with its transposes and
reshapes planned from the subscripts; every other step (a product with no
point summed, a full sum to a scalar, a lone operand, a product whose
matrix would have a batch point at unit stride) runs as one plain
``np.einsum``, numpy's C loop. Either way every point tuple is summed. No
operand or intermediate of a catalogue core holds more than three points,
so none holds more than w**3 values. Both primitives come from one minor,
u_i v_j - v_i u_j: the shape primitive is minor(x, y), and the colour
determinant is its cofactor expansion along red,
r (x) minor(g, b) - g (x) minor(r, b) + b (x) minor(r, g).

The cores that one call sums over a domain (the quadratic colour core and
the 25 numerators in brute_force_features, the one core in
brute_force_core_integral) run as one program, planned once per domain size
on first use. A step that two or more of them share up to a renaming of
points that keeps the points' order (the same operands, and the same
subscripts once each step's points are renamed in sorted order) runs once,
and its result is held until its last reader. Every array the program
builds but the BLAS products and the scalar sums (the primitives, their
powers and each einsum step that keeps a point) is written into a slot of a
workspace: arrays of w, w**2 or w**3 values, which each thread keeps for the
last two domain sizes it summed over (an image's k=0 and k=1 domains) and
reuses image after image. A slot holds one array from the instruction that
writes it to its last reader, and is then free for a later array. So a warm
image allocates no w**3 array but its BLAS products. Renaming in order
leaves numpy's loops as they were, so every core's sum keeps the bits of
the core contracted on its own.

Intended for tiny images only; the tuple count is guarded.
"""

from __future__ import annotations

import threading
from functools import lru_cache, partial

import numpy as np

from .algebra import CoreSpec, catalogue_specs
from .engine import FeatureVector, RasterImage, centred_values, degeneracy_floor, stable_sum
from .errors import TooLarge

#: hard ceiling on (masked pixel count) ** (integration points)
TUPLE_GUARD = 10**8

#: the quadratic colour core, the normalizer of every invariant
_D2 = CoreSpec(color_triples=((1, 2, 3, 2),))

#: einsum subscript of integration point p is _LABELS[p - 1]
_LABELS = "abcdefghijklmnopqrstuvwxyz"

#: per thread, a workspace for each of the last two domain sizes it summed over
_THREAD = threading.local()


def _minor(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """u_i v_j - v_i u_j over every point pair (i, j)."""
    return np.subtract(np.multiply.outer(u, v), np.multiply.outer(v, u), out=out)


def _subscripts(points: tuple[int, ...]) -> str:
    return "".join(_LABELS[p - 1] for p in points)


def _matmul_kernel(inputs: list[str], kept: str, size: int):
    """The two-operand step ``inputs -> kept`` as one np.matmul: the step's
    output subscripts and its kernel, called as _Plan calls every kernel, or
    None where the step is no matrix product.

    Each operand is C-contiguous in the order of its subscripts. Points both
    operands hold are summed (inner) or kept (batch); a kept point only one
    holds is a row of the left operand or a column of the right one. Each
    operand is transposed to (batch..., rows, inner) or (batch..., inner,
    cols) and reshaped, a view wherever each group's points lie next to each
    other in memory. The product is reshaped to the points batch + rows +
    cols, a view; the operands swap sides where that lays it out in sorted
    point order. No matrix product is a step that sums no point, keeps none,
    or sums a point one operand alone holds, nor one whose matrix would have
    a batch point at unit stride: numpy's matmul then skips BLAS for a loop
    slower than einsum's.
    """
    x, y = inputs
    inner = [p for p in x if p in y and p not in kept]
    batch = [p for p in x if p in y and p in kept]
    own = {s: [p for p in s if p not in inner + batch] for s in inputs}
    if not inner or not kept or not set(own[x] + own[y]) <= set(kept):
        return None
    if any(own[s] and s[-1] in batch for s in inputs):
        return None
    swap = "".join(batch + own[x] + own[y]) != kept and "".join(batch + own[y] + own[x]) == kept
    left, right = (y, x) if swap else (x, y)
    out = "".join(batch + own[left] + own[right])
    stack = (size,) * len(batch)
    left_perm = [left.index(p) for p in batch + own[left] + inner]
    left_shape = stack + (size ** len(own[left]), size ** len(inner))
    right_perm = [right.index(p) for p in batch + inner + own[right]]
    right_shape = stack + (size ** len(inner), size ** len(own[right]))
    out_shape = (size,) * len(out)

    def kernel(_values, operands, _slots):
        a, b = operands[::-1] if swap else operands
        return np.matmul(a.transpose(left_perm).reshape(left_shape),
                         b.transpose(right_perm).reshape(right_shape)).reshape(out_shape)

    return out, kernel


@lru_cache(maxsize=None)
def _contraction(spec: CoreSpec, size: int) -> tuple[tuple, tuple]:
    """The core's operands (a primitive and exponent each) and the steps of
    numpy's greedy path that contract them to a scalar over a domain of size
    points; built on first use.

    A step pops the operands at its positions, highest first, and appends
    what it makes of them: the points the taken operands share with those
    still left, in the order its subscripts give. Its third entry is a
    planned np.matmul kernel (see _matmul_kernel), or None where the step is
    np.einsum on the subscripts.
    """
    subscripts = [_subscripts((i, j)) for i, j, _ in spec.shape_factors]
    subscripts += [_subscripts((p, q, r)) for p, q, r, _ in spec.color_triples]
    factors = [("shape", exp) for *_, exp in spec.shape_factors] + [("det", exp) for *_, exp in spec.color_triples]
    for label in _LABELS[: spec.width]:
        if label not in "".join(subscripts):
            subscripts.append(label)
            factors.append(("ones", 1))
    # the path depends on the operands' shapes alone
    shapes = [np.broadcast_to(0.0, (size,) * len(s)) for s in subscripts]
    path, _ = np.einsum_path(",".join(subscripts) + "->", *shapes, optimize="greedy")
    steps = []
    for taken in path[1:]:
        taken = tuple(sorted(taken, reverse=True))
        inputs = [subscripts.pop(n) for n in taken]
        kept = "".join(sorted(set("".join(inputs)) & set("".join(subscripts))))
        out, matmul = (_matmul_kernel(inputs, kept, size) if len(inputs) == 2 else None) or (kept, None)
        subscripts.append(out)
        steps.append((taken, ",".join(inputs) + "->" + out, matmul))
    return tuple(factors), tuple(steps)


def _shape(values, operands, out):
    """x_i y_j - y_i x_j over every point pair (i, j)."""
    return _minor(*values[:2], out=out[0])


def _det(values, operands, out):
    """The channel determinant over every point triple, by cofactors of the
    red channel, with a second slot for each cofactor term."""
    det, term = out
    rc, gc, bc = values[2:]
    np.multiply.outer(rc, _minor(gc, bc), out=det)
    det -= np.multiply.outer(gc, _minor(rc, bc), out=term)
    det += np.multiply.outer(bc, _minor(rc, gc), out=term)
    return det


def _ones(values, operands, out):
    """1 at every point: the factor of a point no primitive holds."""
    out[0].fill(1.0)
    return out[0]


def _power(exp, values, operands, out):
    """A primitive raised to exp, by the ufunc that ``base**exp`` dispatches to."""
    (base,), (power,) = operands, out
    return np.square(base, out=power) if exp == 2 else np.power(base, exp, out=power)


def _einsum(subscripts, values, operands, out):
    return np.einsum(subscripts, *operands, out=out[0] if out else None)


#: each primitive's kernel, its number of points and its number of slots
_PRIMITIVES = {"shape": (_shape, 2, 1), "det": (_det, 3, 2), "ones": (_ones, 1, 1)}


def _canonical(subscripts: str) -> str:
    """The step's subscripts with its points renamed in sorted order: the
    same for two steps that differ by a renaming that keeps the points'
    order, which leaves numpy's loops, and so every bit, as they were."""
    labels = sorted(set(subscripts) - set(",->"))
    return subscripts.translate({ord(c): _LABELS[n] for n, c in enumerate(labels)})


class _Plan:
    """The cores' contractions over a domain of size points as one program.

    Instruction n makes value n: it calls its kernel on the domain's centred
    values, the values it reads and the workspace slots it writes, then
    drops the values it read last. A primitive, a power or a step is one
    instruction however many cores use it, a step being keyed by its
    operands and its canonical subscripts. ``cores`` holds, per core, the
    number of instructions run before its sum is known, and the value that
    holds it; ``slots`` holds each slot's number of points.
    """

    def __init__(self, cores: tuple[CoreSpec, ...], size: int):
        self.size = size
        code: list[tuple] = []  # kernel, values read, points written, slots written
        made: dict[tuple, int] = {}  # a value's key -> the instruction that makes it
        self.cores: list[tuple[int, int]] = []

        def value(key, kernel, reads=(), points=0, slots=1):
            if key not in made:
                made[key] = len(code)
                code.append((kernel, reads, points, slots if points else 0))
            return made[key]

        for core in cores:
            factors, steps = _contraction(core, size)
            operands = []
            for primitive, exp in factors:
                kernel, points, slots = _PRIMITIVES[primitive]
                base = value((primitive, 1), kernel, points=points, slots=slots)
                operands.append(base if exp == 1 else value((primitive, exp), partial(_power, exp), (base,), points))
            for taken, subscripts, matmul in steps:
                reads = tuple(operands.pop(n) for n in taken)
                key = (_canonical(subscripts), reads)
                if matmul:  # a BLAS product keeps its own array
                    operands.append(value(key, matmul, reads))
                else:
                    points = len(subscripts.split("->")[1])
                    operands.append(value(key, partial(_einsum, subscripts), reads, points))
            self.cores.append((len(code), operands[0]))

        last = {read: n for n, (_, reads, _, _) in enumerate(code) for read in reads}
        free: dict[int, list[int]] = {}  # points -> the slots of that many points no value holds
        slot_of: dict[int, int] = {}  # a value in a slot -> its slot
        self.slots: list[int] = []
        self.code: list[tuple] = []
        for n, (kernel, reads, points, slots) in enumerate(code):
            out = []
            for _ in range(slots):
                if not free.get(points):
                    free.setdefault(points, []).append(len(self.slots))
                    self.slots.append(points)
                out.append(free[points].pop())
            dead = tuple(read for read in dict.fromkeys(reads) if last[read] == n)
            # a value's slot is free once its last reader has run, a scratch slot at once
            for slot in [slot_of[read] for read in dead if read in slot_of] + out[1:]:
                free[self.slots[slot]].append(slot)
            if out:
                slot_of[n] = out[0]
            self.code.append((kernel, reads, tuple(out), dead))

    def sums(self, values: list[np.ndarray]):
        """Each core's sum over the domain of these centred values, in order:
        inf or nan on overflow."""
        arrays = _workspace(self.size, self.slots)
        held: list = [None] * len(self.code)
        n = 0
        for stop, result in self.cores:
            for kernel, reads, out, dead in self.code[n:stop]:
                held[n] = kernel(values, [held[read] for read in reads], [arrays[slot] for slot in out])
                for read in dead:
                    held[read] = None
                n += 1
            yield float(held[result])


@lru_cache(maxsize=None)
def _plan(cores: tuple[CoreSpec, ...], size: int) -> _Plan:
    return _Plan(cores, size)


def _workspace(size: int, slots: list[int]) -> list[np.ndarray]:
    """This thread's arrays for a plan's slots over a domain of size points.

    A thread keeps the arrays of the last two domain sizes it used, so an
    image's k=0 and k=1 domains reuse theirs image after image, and the
    arrays of a size it has left go. Plans of one size share its arrays.
    """
    spaces = vars(_THREAD).setdefault("workspaces", {})
    pools = spaces.pop(size, {})
    spaces[size] = pools
    for old in list(spaces)[:-2]:
        del spaces[old]
    arrays: list[np.ndarray] = []
    for points in slots:
        pool = pools.setdefault(points, [])
        taken = sum(a.ndim == points for a in arrays)
        if taken == len(pool):
            pool.append(np.empty((size,) * points))
        arrays.append(pool[taken])
    return arrays


def _domain(img: RasterImage, k: int, width: int) -> list[np.ndarray]:
    """The k-domain's centred values; raises TooLarge before anything is
    built when w**width tuples exceed the guard."""
    values = centred_values(img, k)
    size = values[0].size
    if size**width > TUPLE_GUARD:
        raise TooLarge(f"{size} pixels with {width} points exceeds the tuple guard")
    return values


def _normalizer(values: list[np.ndarray], d2: float) -> float | None:
    """The quadratic colour core d2; None where it underflows the engine's
    floor, which no core of a zero-point domain passes, or is not finite."""
    squares = [stable_sum(c * c) for c in values[2:]]
    return d2 if degeneracy_floor(float(values[0].size), squares) < d2 < np.inf else None


@np.errstate(over="ignore", invalid="ignore")
def brute_force_core_integral(img: RasterImage, spec: CoreSpec, k: int) -> float:
    """Nested summation of the core over all point tuples of the k domain.

    An empty k=1 domain, one that stencil erosion empties, sums to 0.0.
    Raises EmptyDomain when the mask has no pixels, and InvalidSpec, from
    centred_values, unless k is the integer 0 or 1.
    """
    values = _domain(img, k, spec.width)
    return next(_plan((spec,), values[0].size).sums(values))


@np.errstate(over="ignore", invalid="ignore")
def brute_force_features(img: RasterImage) -> FeatureVector:
    """All 50 invariants by brute force, entry for entry as scdmi50 lays them out.

    Each k-domain's centred values, primitives and quadratic core are built
    once, and each step the cores share runs once. Entries of a k are
    invalid where the quadratic core underflows the degeneracy floor, as it
    does on a k=1 domain that stencil erosion empties, and an entry is
    invalid where it overflows. Raises EmptyDomain, as scdmi50 does, when
    the mask has no pixels.
    """
    specs = catalogue_specs()
    cores = (_D2, *(spec.source for spec in specs))
    width = max(core.width for core in cores)
    values = np.zeros(50)
    valid = np.zeros(50, dtype=bool)
    for k in (0, 1):
        centred = _domain(img, k, width)
        sums = _plan(cores, centred[0].size).sums(centred)
        d2 = _normalizer(centred, next(sums))
        if d2 is None:
            continue
        for pos, (spec, numer) in enumerate(zip(specs, sums), start=25 * k):
            value = numer / (float(centred[0].size) ** float(spec.area_exponent) * d2 ** float(spec.denom_exponent))
            if np.isfinite(value):
                values[pos], valid[pos] = value, True
    return FeatureVector(values, valid)
