"""The compute-backend kernel surface.

Every numeric kernel on the pipeline's hot path — batched element
stiffness, strain/stress products, COO triplet accumulation, CSR
mat-vec, block-wise preconditioner application, and the multi-channel
trilinear gather under all image resampling — is routed through a
:class:`ComputeBackend`. The numpy reference implementation
(:mod:`repro.backend.numpy_backend`) is always importable; accelerated
implementations (:mod:`repro.backend.numba_backend`, and a future
GPU/cupy port) implement the same surface and are selected at runtime
through :func:`repro.backend.get_backend`.

The contract for every kernel is *numerical agreement with the numpy
reference to <= 1e-10* on well-conditioned inputs; the parity tests in
``tests/test_backend.py`` enforce it kernel by kernel and end to end.
"""

from __future__ import annotations

import abc

import numpy as np


class BlockApply(abc.ABC):
    """Callable applying a factorized block-diagonal preconditioner.

    Built once per preconditioner by
    :meth:`ComputeBackend.prepare_block_apply` (so a backend can compile
    or repack the per-block factors), then invoked on every Krylov
    iteration with a preallocated output buffer.
    """

    @abc.abstractmethod
    def __call__(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``out[a:b] = solve(block_k, r[a:b])`` for every block."""


class ComputeBackend(abc.ABC):
    """Abstract kernel surface shared by all compute backends.

    Implementations must be stateless apart from compilation caches so a
    single instance can be shared process-wide; all kernels take and
    return plain numpy arrays (accelerator backends convert internally).
    """

    #: Registry identity; also hashed into solve-context fingerprints so
    #: cached numeric state never mixes outputs of different backends.
    name: str = "abstract"

    # -- element kernels ---------------------------------------------------

    @abc.abstractmethod
    def shape_gradients(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shape-function gradients ``(m, 4, 3)`` and signed volumes ``(m,)``.

        ``coords`` is ``(m, 4, 3)`` node coordinates per tetrahedron.
        Raises :class:`repro.util.ValidationError` on degenerate
        (zero-volume) elements.
        """

    @abc.abstractmethod
    def element_stiffness_from_B(
        self, B: np.ndarray, volumes: np.ndarray, elasticity: np.ndarray
    ) -> np.ndarray:
        """Batched ``K_e = |V| B^T D B``, shape ``(m, 12, 12)``.

        ``volumes`` are already absolute values; ``elasticity`` is
        ``(m, 6, 6)``.
        """

    @abc.abstractmethod
    def element_strains(self, B: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Voigt strains ``(m, 6)`` from ``(m, 6, 12)`` B and ``(m, 12)`` u."""

    @abc.abstractmethod
    def element_stress(self, elasticity: np.ndarray, strains: np.ndarray) -> np.ndarray:
        """Voigt stresses ``(m, 6)``: ``sigma_e = D_e eps_e``."""

    # -- sparse kernels ----------------------------------------------------

    @abc.abstractmethod
    def coo_accumulate(
        self, scatter: np.ndarray, values: np.ndarray, nnz: int
    ) -> np.ndarray:
        """Accumulate COO triplet values into CSR data slots.

        ``scatter[i]`` is the position of triplet ``i`` inside the
        canonical CSR ``data`` array (duplicates share a slot); returns
        the dense ``(nnz,)`` data vector. The numpy reference is a
        weighted bincount.
        """

    def accumulate_into(
        self, data: np.ndarray, slots: np.ndarray, values: np.ndarray
    ) -> None:
        """Running form of :meth:`coo_accumulate`: ``data[slots[i]] += values[i]``.

        Unbuffered and in input order (duplicates within ``slots`` all
        land), so feeding the triplets of :meth:`coo_accumulate` through
        this in consecutive blocks, into an array of zeros, adds the same
        values to every slot in the same order — the bit-identity the
        blocked stiffness fill (:func:`repro.fem.assembly.fill_csr_values`)
        rests on. The reference is ``np.add.at`` (as fast as ``bincount``
        from numpy 1.25); an accelerated override must keep the order.
        """
        np.add.at(data, slots, values)

    @abc.abstractmethod
    def csr_matvec(self, matrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` for a scipy CSR matrix (rectangular allowed).

        Writes into ``out`` when given (a contiguous view is fine) and
        returns the result either way.
        """

    # -- image kernels -----------------------------------------------------

    def trilinear_gather(
        self,
        channels,
        base: np.ndarray,
        strides: tuple[int, int, int],
        fx: np.ndarray,
        fy: np.ndarray,
        fz: np.ndarray,
    ) -> np.ndarray:
        """Eight-corner gather and trilinear blend of several channels.

        ``channels`` are ``C`` flat (C-order raveled) float64 volumes on
        one grid; ``base[p]`` is the flat offset of point ``p``'s lower
        corner ``(i0, j0, k0)`` and ``strides`` the flat offsets to the
        upper neighbour along x, y, z (0 on a singleton axis), so every
        corner is ``base + const``. ``fx``/``fy``/``fz`` are the
        fractional weights in ``[0, 1]``. Returns ``(C, n)``.

        Index arithmetic and weights are the caller's (computed once for
        all channels); this kernel is only the memory-bound gather. The
        blend order — x, then y, then z, each ``lo * (1 - f) + hi * f`` —
        is part of the contract: a channel's result does not depend on
        which other channels ride along, and an accelerated override must
        keep that.
        """
        di, dj, dk = strides
        gx, gy, gz = 1 - fx, 1 - fy, 1 - fz
        out = np.empty((len(channels), base.shape[0]))
        for c, flat in enumerate(channels):
            # Shifted views put the corner offset in the view's start, so
            # all eight gathers share the one index vector.
            c00 = flat.take(base) * gx + flat[di:].take(base) * fx
            c10 = flat[dj:].take(base) * gx + flat[di + dj :].take(base) * fx
            c01 = flat[dk:].take(base) * gx + flat[di + dk :].take(base) * fx
            c11 = flat[dj + dk :].take(base) * gx + flat[di + dj + dk :].take(base) * fx
            c0 = c00 * gy + c10 * fy
            c1 = c01 * gy + c11 * fy
            np.add(c0 * gz, c1 * fz, out=out[c])
        return out

    # -- preconditioner kernels --------------------------------------------

    @abc.abstractmethod
    def prepare_block_apply(self, ranges, factors) -> BlockApply:
        """Pack per-block LU/ILU factors for repeated application.

        ``ranges`` is a sequence of half-open ``(start, stop)`` row
        ranges tiling ``[0, n)``; ``factors[k]`` is the SuperLU object
        of block ``k`` (``scipy.sparse.linalg.splu``/``spilu`` result).
        Backends may repack the factors into their own format; they must
        reproduce ``factors[k].solve`` to <= 1e-10 or fall back to it.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
