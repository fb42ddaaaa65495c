"""Run plumbing of the command line: the output transaction and the fork-join map.

Outputs.  Every command stages every output, ``--out``, ``--model-out``
and ``--out-dir``, right after its flags parse and before it reads any
input or computes.  An output path that cannot be staged, a directory
given as ``--out``, a file given as ``--out-dir`` or as an ancestor of
either, or two outputs naming one file, thus fails before any work.
The command writes each output into staging as it is made, and the
files are moved into place only once every one is built, so a failed
command leaves each output path as it was.  Each moved file is swapped
whole and keeps the mode and owner of the file it replaces.  Written
through in place are a device or a pipe (``--out /dev/null``), a file
that cannot be swapped or whose owner cannot be kept, and a file in a
directory where no staging directory can be made.  The staging
directory exists while the command runs, so a killed run of any
command leaves its ``.fracsig-stage.*`` directory.  Such a directory is
kept, and named by the next run staging there.

Workers.  ``synth cohort``, ``synth viral``, ``extract``, ``train`` and
``viral`` run their independent items, the record writes, the records,
the folds and held-out sites or the subjects, in one forked worker
process per core the process may use (``taskset -c 0`` gives one core:
the serial path, all in this process).  ``synth viral`` simulates each
subject in its worker, and ``viral`` loads and fits each subject in its
worker; this process keeps the draws and the leave-one-out summary.  The
workers are the parallelism: the command line runs one BLAS thread per
process unless any of ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` is set; a value above 1 multiplies with the workers,
oversubscribing the cores, and outputs may change in the last digits.
Workers write into the command's one staging directory, each ``train``
worker its split's metrics and curve files, and the parent keeps every
random draw and the order of every output, so under that one-thread
default the outputs are byte-identical at any core count.  An item that
raises stops the command with the error of the lowest failing item, the
one a serial run meets first, named by its record, fold, site or
subject, and every output is left as it was.  A worker reports each item
as it ends, so an item that kills its worker, or whose result cannot be
sent back, is named itself.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import pickle
import shutil
import stat
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path


def _write_text(path, text) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _place(staged, path) -> None:
    """Move the finished file ``staged`` onto ``path``.

    A regular file at ``path``, or at the end of a symlink ``path``, is
    swapped whole by ``os.replace`` and keeps its mode and owner.  What
    cannot be swapped so is written through in place, as ``open`` would:
    a device or a pipe such as ``/dev/null``, a file on another file
    system than ``staged``, or one whose owner could not be kept.
    """
    path = Path(path)
    if not path.exists() or path.is_file():
        target = path.resolve()
        try:
            if target.exists():
                st = target.stat()
                os.chown(staged, st.st_uid, st.st_gid)
                os.chmod(staged, stat.S_IMODE(st.st_mode))
            os.replace(staged, target)
            return
        except OSError:
            pass  # written through below
    with open(staged, "rb") as src, open(path, "wb") as dst:
        shutil.copyfileobj(src, dst)


@contextmanager
def _outputs():
    """Stage the outputs written in the block; ``_place`` them if it returns.

    Yields ``(file, folder)``: ``file(path, flag)`` gives the path to write
    for the output file ``path`` of ``flag``, and ``folder(path)`` the
    directory to write an output directory's files into.  A file already
    named by another flag, itself or through a symlink, is refused.  Each
    output directory has one staging directory, in it or in its nearest
    existing ancestor, so each staged file can be swapped in.  Other
    staging directories found there, which a killed run may have left,
    are named on stderr and kept.
    """
    stages = {}  # output directory -> its staging directory
    claimed = {}  # output file -> the flag and path that name it

    def folder(path):
        out_dir = Path(path)
        if out_dir.exists() and not out_dir.is_dir():  # what the final mkdir would raise
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(path))
        if out_dir not in stages:
            home = next(p for p in (out_dir, *out_dir.parents) if p.exists())
            if not home.is_dir():  # an ancestor is a file: what the final mkdir would raise
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
            stages[out_dir] = Path(tempfile.mkdtemp(prefix=".fracsig-stage.", dir=home))
            for old in sorted(home.glob(".fracsig-stage.*")):
                if old.name not in {stage.name for stage in stages.values()}:
                    print(f"fracsig: warning: {old}: another run's staging, kept", file=sys.stderr)
        return stages[out_dir]

    def file(path, flag):
        path = Path(path)
        if path.is_dir():  # what the final open would raise
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if path.exists() and not path.is_file():
            return path  # a device or a pipe is written through
        target = path.resolve()  # stage the file at the end of a symlink
        if target in claimed:  # the later output would replace the earlier one
            raise ValueError(f"{flag} {path} names the same file as {claimed[target]}")
        claimed[target] = f"{flag} {path}"
        if not target.parent.is_dir():  # what the final open would raise, naming the target
            home = next(p for p in target.parents if p.exists())
            code = errno.ENOENT if home.is_dir() else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(path))
        try:
            return folder(target.parent) / target.name
        except PermissionError:  # no staging directory here: write in place
            return path

    try:
        yield file, folder
        for out_dir in stages:  # every directory first, so a failure here moves no file
            out_dir.mkdir(parents=True, exist_ok=True)
        for out_dir, stage in stages.items():
            for staged in sorted(stage.iterdir()):
                _place(staged, out_dir / staged.name)
    finally:
        for stage in stages.values():
            shutil.rmtree(stage, ignore_errors=True)

def _fork_map(fn, items, name):
    """``[fn(item) for item in items]``, run in one forked worker per usable core.

    Worker ``w`` of ``k`` runs items ``w, w + k, ...`` in order and, as each
    ends, appends its pickled ``(ok, value or exception)`` to its own
    unnamed temporary file; it stops at its first failure.  ``fn`` and the
    data it reads reach it through the fork, not through pickling.  Results
    come in item order.  When items fail, the exception of the lowest
    failing index is raised, the one the serial loop would raise.  An item
    whose outcome cannot be loaded, the one its worker was running when it
    was killed or whose outcome does not pickle or unpickle, raises
    ``ChildProcessError`` naming ``name(item)``.  On one core or for one
    item, nothing is forked.
    """
    items = list(items)
    jobs = min(_usable_cores(), len(items))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    sys.stdout.flush()  # so that no worker inherits, and repeats, buffered output
    sys.stderr.flush()
    files, pids = [], []  # each worker's outcome file and process id
    try:
        for first in range(jobs):
            files.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _work(fn, items, first, jobs, files[-1])  # never returns
            pids.append(pid)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results, failures = [None] * len(items), {}
    for first, (outcomes, status) in enumerate(zip(files, statuses)):
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            how = f"its worker process was killed by signal {-code} before reporting it"
        elif code:
            how = f"its worker process exited with status {code} before reporting it"
        else:  # an outcome that did not pickle, or does not load
            how = "its result could not be sent back from its worker process"
        with outcomes:
            outcomes.seek(0)
            for i in range(first, len(items), jobs):
                try:
                    ok, value = pickle.load(outcomes)
                except Exception:  # not written, written in part, or does not load
                    failures[i] = ChildProcessError(f"{name(items[i])}: {how}")
                    break
                if not ok:
                    failures[i] = value
                    break
                results[i] = value
    if failures:
        raise failures[min(failures)]
    return results


def _work(fn, items, first, step, outcomes) -> None:
    """Run ``items[first::step]`` in a forked worker of :func:`_fork_map`,
    append each outcome to the file ``outcomes`` as it ends, and exit."""
    try:
        for i in range(first, len(items), step):
            try:
                ok, value = True, fn(items[i])
            except BaseException as exc:
                ok, value = False, exc
            outcomes.write(pickle.dumps((ok, value)))  # an outcome that does not pickle ends it
            outcomes.flush()
            if not ok:
                break
    finally:
        os._exit(0)  # never the parent's exit handlers or staging cleanup


def _usable_cores() -> int:
    """The worker count of :func:`_fork_map`: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
