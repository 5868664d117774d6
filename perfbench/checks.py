"""Comparisons of spinsurf outputs with the closed forms in oracles.py.

Each check returns a Check; a workload operation passes when all of its checks
do.  The readers parse the files the CLI writes with numpy alone.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

import oracles as orc

BLOCK_ROWS = 64     # rows of a large grid compared at a time


class Check(NamedTuple):
    name: str
    ok: bool
    value: float
    limit: float


def _check(name, value, limit) -> Check:
    value = float(value)
    return Check(name, bool(np.isfinite(value) and value <= limit), value, float(limit))


def max_rel(num, ref) -> float:
    """max |num - ref| / max |ref|."""
    return float(np.max(np.abs(np.asarray(num) - ref)) / np.max(np.abs(ref)))


def rel_l2(num, ref, where=None) -> float:
    """Discrete relative L2 distance, optionally restricted to a boolean window."""
    d = np.abs(np.asarray(num) - ref) ** 2
    r = np.abs(ref) ** 2
    if where is not None:
        d, r = d[where], r[where]
    return float(np.sqrt(np.sum(d) / np.sum(r)))


def field(name, num, ref, rtol=1e-9) -> Check:
    return _check(name, max_rel(num, ref), rtol)


def field_blocks(name, num, oracle, box, n, rtol=1e-9):
    """field() against oracle(z) on the n x n grid over box, evaluated
    BLOCK_ROWS rows at a time so that the check's arrays stay small next to
    the program's and do not set the peak RSS.  Nodes where the reference is
    not finite are left out; returns the check and the boolean array of them."""
    err = scale = 0.0
    bad = np.zeros((n, n), bool)
    for i in range(0, n, BLOCK_ROWS):
        rows = slice(i, i + BLOCK_ROWS)
        ref = oracle(orc.zmesh(box, n, rows=rows))
        ok = np.isfinite(ref)
        bad[rows] = ~ok
        err = max(err, float(np.max(np.abs(num[rows][ok] - ref[ok]))))
        scale = max(scale, float(np.max(np.abs(ref[ok]))))
    return _check(name, err / scale, rtol), bad


def field_l2(name, num, ref, tol, where=None) -> Check:
    return _check(name, rel_l2(num, ref, where), tol)


def norm(name, value, target, rtol=5e-3) -> Check:
    return _check(name, abs(value - target) / target, rtol)


def count(name, got, expected) -> Check:
    return Check(name, got == expected, float(got), float(expected))


def events(name, got, expected, tol=1e-5) -> Check:
    """got/expected: lists of (t, coefficient); matched in order of t."""
    if len(got) != len(expected):
        return Check(name, False, float(len(got)), float(len(expected)))
    err = 0.0
    for (tg, cg), (te, ce) in zip(sorted(got, key=lambda e: e[0]),
                                  sorted(expected, key=lambda e: e[0])):
        err = max(err, abs(tg - te), abs(cg - ce) / max(1.0, abs(ce)))
    return _check(name, err, tol)


def mesh(name, verts, n_faces, ref, n, tol) -> list[Check]:
    """An n x n grid mesh: n^2 vertices, 2 (n-1)^2 triangles, vertices near ref
    (ref has shape (3, n, n) in grid order)."""
    out = [count(f"{name} vertices", len(verts), n * n),
           count(f"{name} triangles", n_faces, 2 * (n - 1) ** 2)]
    if len(verts) == n * n:
        err = float(np.max(np.abs(verts - ref.reshape(3, -1).T)))
        out.append(_check(f"{name} vertex error", err, tol))
    return out


def dirac_residual(U, p1, p2, hx, hy, vee=False) -> float:
    """max |D psi| off a one-node margin, by central differences:
    D psi = (d psi2 + U psi1, -db psi1 + conj(U) psi2), U and conj(U) swapped for
    Dvee, with d = (d_x - i d_y)/2 and db = (d_x + i d_y)/2."""
    def wirtinger(f, sign):
        return (np.gradient(f, hx, axis=1) + sign * 1j * np.gradient(f, hy, axis=0)) / 2
    a, b = (np.conj(U), U) if vee else (U, np.conj(U))
    r1 = wirtinger(p2, -1) + a * p1
    r2 = -wirtinger(p1, 1) + b * p2
    return float(np.max(np.maximum(np.abs(r1), np.abs(r2))[1:-1, 1:-1]))


def read_obj(path):
    """(vertices (N, 3), number of faces) of an OBJ file."""
    verts, n_faces = [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line[2:])
            elif line.startswith("f "):
                n_faces += 1
    return np.loadtxt(verts, ndmin=2), n_faces


def read_ply(path):
    """(vertices (N, 3), number of faces) of a binary little-endian PLY file
    with float32 vertices and uchar-counted int32 triangles."""
    data = Path(path).read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii").splitlines()
    nv = int(next(h for h in header if h.startswith("element vertex")).split()[2])
    nf = int(next(h for h in header if h.startswith("element face")).split()[2])
    verts = np.frombuffer(data, dtype="<f4", count=3 * nv, offset=end).reshape(nv, 3)
    faces = np.frombuffer(data, dtype=[("n", "u1"), ("v", "<i4", 3)], count=nf,
                          offset=end + 12 * nv)
    if not np.all(faces["n"] == 3):
        raise ValueError(f"{path}: non-triangular face")
    return verts.astype(float), nf


def read_field_csv(path, n):
    """Complex n x n field from an ix,iy,re,im CSV."""
    d = np.loadtxt(path, delimiter=",", skiprows=1)
    vals = np.full((n, n), np.nan, dtype=complex)
    vals[d[:, 1].astype(int), d[:, 0].astype(int)] = d[:, 2] + 1j * d[:, 3]
    return vals


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
