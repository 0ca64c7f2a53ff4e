"""Workspace-level plan cache (paper §3.2 / §3.3).

Each :class:`~repro.engine.rules.Rule` memoizes its own plans, but rule
objects die with their :class:`ProgramArtifacts` — every ``addblock`` /
``removeblock`` recompiles the program, and every recompile used to
start plan-cold.  A :class:`PlanCache` outlives program artifacts: it
is keyed by the rule's *structure* (its canonical text), the requested
variable order, and the relation schema the body reads (predicate name
and arity per atom), so a re-installed rule over unchanged schemas
reuses the compiled :class:`~repro.engine.planner.Plan` across
transactions, IVM passes, and program edits.

Hits and misses are counted both locally (``cache.hits`` /
``cache.misses``) and in the global engine counters
(``plan_cache.hits`` / ``plan_cache.misses``) for workspace exports.

The cache also keeps the columnar executor's join setups (its per-join
dictionary-encoded tries, keyed by plan shape and relation versions),
so they are shared by the owning workspace's transactions and readers
and by nothing else.
"""

import threading

from repro import obs
from repro import stats as global_stats
from repro.engine.ir import PredAtom


def rule_schema_key(rule):
    """The relation schema the rule body reads: ``(pred, arity)`` per
    predicate atom, sorted and deduplicated."""
    pairs = {
        (atom.pred, len(atom.args))
        for atom in rule.body
        if isinstance(atom, PredAtom)
    }
    return tuple(sorted(pairs))


class PlanCache:
    """Cross-transaction cache of compiled LFTJ plans."""

    SETUP_CAPACITY = 64  # columnar join setups kept, least recently used out

    def __init__(self, capacity=1024):
        self.capacity = capacity
        self._plans = {}  # (rule key, var order, schema key) -> Plan
        # (plan signature, relation versions) -> columnar join setup,
        # least recently used first
        self._setups = {}
        # id(rule) -> (rule, structural key): the strong reference makes
        # the id stable for the cached entry's lifetime
        self._rule_keys = {}
        # the service shares one cache across concurrent transaction
        # engines, so lookups/evictions must not race
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _rule_key(self, rule):
        entry = self._rule_keys.get(id(rule))
        if entry is None or entry[0] is not rule:
            entry = (rule, repr(rule))
            self._rule_keys[id(rule)] = entry
        return entry[1]

    def plan_for(self, rule, var_order=None):
        """The compiled plan for ``rule`` under ``var_order`` (cached)."""
        with self._lock:
            key = (
                self._rule_key(rule),
                tuple(var_order) if var_order is not None else None,
                rule_schema_key(rule),
            )
            plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            global_stats.bump("plan_cache.hits")
            with obs.span("plan", rule=rule.head_pred, cache="hit"):
                return plan
        with obs.span("plan", rule=rule.head_pred, cache="miss"):
            self.misses += 1
            global_stats.bump("plan_cache.misses")
            plan = rule.plan(var_order)
            with self._lock:
                if len(self._plans) >= self.capacity:
                    self._plans.pop(next(iter(self._plans)))
                self._plans[key] = plan
            return plan

    def setup(self, key):
        """The cached columnar join setup for ``key``, or ``None``."""
        with self._lock:
            setup = self._setups.pop(key, None)
            if setup is not None:
                self._setups[key] = setup
            return setup

    def store_setup(self, key, setup):
        """Cache a columnar join setup, evicting the least recently used."""
        with self._lock:
            while len(self._setups) >= self.SETUP_CAPACITY:
                self._setups.pop(next(iter(self._setups)))
            self._setups[key] = setup

    def stats_snapshot(self):
        """Hit/miss/size counters for observability exports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._plans),
        }
