"""The repository benchmark: one seeded operation mix at three entry points.

``python3 perfbench/run.py --workload {file,embedded,serve} --seed N
--seconds S --trace {0,1}`` drives the mix through a bare
``DurableFile`` (``file``), an in-process ``Cluster`` (``embedded``) or a
``trie-hashing serve`` process over a Unix socket (``serve``). See
``perfbench/README.md`` for the metrics and how to read them.
"""
