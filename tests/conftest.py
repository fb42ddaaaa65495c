"""Run the tests under the command line's BLAS pin.

``fracsig.cli`` sets one BLAS thread per process, unless a thread variable
is set, before numpy loads its BLAS.  Imported here, ahead of every test
module, it gives the test process what a ``fracsig`` process gets, so the
tests that fork one worker per core do not multiply BLAS threads with them.
"""

import fracsig.cli  # noqa: F401
