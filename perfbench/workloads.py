"""The four workloads: seeded inputs, schema and load, op streams, checks.

Each workload is built from ``seed`` alone (same seed, same inputs) and
talks to the program only through client sessions.  Op streams are
endless iterators of ``(kind, call)``; the closed loop stops them.  Op
kinds are ``commit`` (a single-server or single-shard write),
``delete_commit`` (a write that deletes under a recursive view),
``cross_commit`` (a cross-shard write), ``read`` (a point read),
``join_query`` and ``scan_query``.
"""

import bisect
import itertools
import random


def rng_for(seed, *parts):
    """A generator seeded from ``seed`` and a label (string seeds hash
    deterministically, independent of PYTHONHASHSEED)."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def zipf_cum_weights(n, s=1.0):
    total = 0.0
    out = []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** s
        out.append(total)
    return out


def pick(rng, cum_weights):
    return bisect.bisect_left(cum_weights, rng.random() * cum_weights[-1])


def closure(edges):
    """Transitive closure of ``edges`` in plain Python."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    out = set()
    for source in adj:
        seen = set()
        stack = list(adj[source])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adj.get(node, ()))
        out.update((source, node) for node in seen)
    return out


def count_triangles(edges):
    """Triangles ``a < b < c`` with all three edges, in plain Python."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    return sum(1 for a, b in edges if a < b
               for c in adj.get(b, ()) if b < c and c in adj[a])


#: Auto-checkpoint period in commits, for the workloads that checkpoint.
CHECKPOINT_EVERY = 16


def checkpoint_args(workdir, label):
    return ["--checkpoint-path", "{}/{}-ckpt".format(workdir, label),
            "--checkpoint-every", str(CHECKPOINT_EVERY)]


class Workload:
    name = None
    clients = 2
    shards = 0          # 0: one plain server; n: n shard servers
    primary = "commit"  # the op kind behind primary_op_p50_ms

    def server_args(self, workdir, label):
        return []

    def connect(self, endpoints):
        import repro
        return repro.connect("tcp://" + endpoints[0])


# -- oltp_inventory -----------------------------------------------------------


class OltpInventory(Workload):
    """Point decrements and reads over a constrained inventory."""

    name = "oltp_inventory"
    # one session: two writers settle into alternating group-commit
    # batches on some runs and shared ones on others, and the two
    # regimes differ ~2x in commit latency
    clients = 1
    items = 1024
    mix_period = 4      # 75% writes, 25% reads

    def __init__(self, seed):
        rng = rng_for(seed, self.name, "data")
        self.keys = ["sku{:04d}".format(i) for i in range(self.items)]
        self.price = {k: rng.randint(1, 99) for k in self.keys}
        self.stock = {k: rng.randint(5000, 9999) for k in self.keys}
        self.hot = list(self.keys)
        rng.shuffle(self.hot)
        self.cum = zipf_cum_weights(self.items)
        self.seed = seed

    SCHEMA = """
        inventory[s] = v -> string(s), int(v).
        price[s] = p -> string(s), int(p).
        inventory[s] = v -> v >= 0.
        inventory[s] = v -> price[s] = _.
        value[s] = x <- inventory[s] = v, price[s] = p, x = v * p.
        total_value[] = u <- agg<<u = sum(x)>> value[s] = x.
    """

    def server_args(self, workdir, label):
        return checkpoint_args(workdir, label)

    def setup(self, session):
        session.addblock(self.SCHEMA, name="schema")
        session.load("price", sorted(self.price.items()))
        session.load("inventory", sorted(self.stock.items()))

    def streams(self, sessions):
        return [(s, self._ops(i)) for i, s in enumerate(sessions)]

    def _ops(self, index):
        # the mix is a fixed pattern (three writes, then a read) so that
        # every run does the same share of each; only the keys are drawn
        rng = rng_for(self.seed, self.name, "ops", index)
        for step in itertools.count():
            key = self.hot[pick(rng, self.cum)]
            if step % self.mix_period != self.mix_period - 1:
                text = ('^inventory["{0}"] = v - 1 <- '
                        'inventory@start["{0}"] = v.').format(key)
                yield "commit", _exec(text, key)
            else:
                text = '_(v) <- inventory["{}"] = v.'.format(key)
                yield "read", _query(text, key)

    def check(self, session, records):
        errors = []
        expected = dict(self.stock)
        for r in records:
            if r.ok and r.kind == "commit":
                expected[r.result[0]] -= 1
        actual = dict(session.rows("inventory"))
        if actual != expected:
            bad = sorted(k for k in expected if actual.get(k) != expected[k])
            errors.append("inventory differs from initial minus committed "
                          "decrements on {} keys, e.g. {}".format(
                              len(bad), bad[:3]))
        if sum(actual.values()) != sum(self.stock.values()) - sum(
                1 for r in records if r.ok and r.kind == "commit"):
            errors.append("inventory sum is not initial sum minus commits")
        total = sum(v * self.price[k] for k, v in actual.items())
        got = session.rows("total_value")
        if got != [(total,)]:
            errors.append("total_value {} != recomputed {}".format(got, total))
        for r in records:
            if r.ok and r.kind == "read":
                key, rows = r.result
                if len(rows) != 1 or not 0 <= rows[0][0] <= self.stock[key]:
                    errors.append("bad point read {} -> {}".format(key, rows))
                    break
        return errors


def _exec(text, tag=None):
    def call(session):
        result = session.exec(text)
        return tag, result
    return call


def _query(text, tag=None):
    def call(session):
        return tag, session.query(text)
    return call


# -- graph_views ---------------------------------------------------------------


class GraphViews(Workload):
    """Edge deletes and re-inserts under a recursive view."""

    name = "graph_views"
    # deletes run DRed and cost more than inserts; as half the commits,
    # the median of all commits would sit between the two kinds
    primary = "delete_commit"
    # one session: two writers' commits share batches for a while and
    # then alternate, and the two regimes differ ~1.5x in throughput
    clients = 1
    nodes = 200
    edges_target = 580
    layers = 6
    skip_share = 0.2
    churn_per_session = 64

    SCHEMA = """
        edge(a, b) -> int(a), int(b).
        reach(a, b) <- edge(a, b).
        reach(a, c) <- reach(a, b), edge(b, c).
        outdeg[a] = n <- agg<<n = count(b)>> edge(a, b).
        reachable[a] = n <- agg<<n = count(b)>> reach(a, b).
    """

    def __init__(self, seed):
        # a layered DAG: most edges join adjacent layers, a few skip
        # ahead, so the closure is ~6,000 rows but one deleted edge
        # over-deletes tens of rows, not thousands
        rng = rng_for(seed, self.name, "data")
        per = self.nodes // self.layers
        edges = set()
        while len(edges) < self.edges_target:
            i = rng.randrange(self.layers - 1)
            j = (rng.randrange(i + 1, self.layers)
                 if rng.random() < self.skip_share else i + 1)
            edges.add((i * per + rng.randrange(per),
                       j * per + rng.randrange(per)))
        self.edges = sorted(edges)
        # churn edges are drawn per source layer and dealt round-robin
        # across layers, so any stretch of a session's cycle touches
        # every layer alike: a delete's cost depends mostly on its layer
        by_layer = [[] for _ in range(self.layers - 1)]
        for edge in self.edges:
            by_layer[edge[0] // per].append(edge)
        for edges_of_layer in by_layer:
            rng.shuffle(edges_of_layer)
        churn = [by_layer[n % len(by_layer)][n // len(by_layer)]
                 for n in range(self.churn_per_session * self.clients)]
        self.churn = [churn[i::self.clients] for i in range(self.clients)]
        self.sources = sorted({a for a, _ in self.edges})
        self.seed = seed

    def server_args(self, workdir, label):
        return checkpoint_args(workdir, label)

    def setup(self, session):
        session.addblock(self.SCHEMA, name="schema")
        session.load("edge", self.edges)

    def streams(self, sessions):
        return [(s, self._ops(i)) for i, s in enumerate(sessions)]

    def _ops(self, index):
        rng = rng_for(self.seed, self.name, "ops", index)
        for a, b in itertools.cycle(self.churn[index]):
            yield "delete_commit", _exec(
                "-edge({}, {}).".format(a, b), ("-", a, b))
            yield "commit", _exec("+edge({}, {}).".format(a, b), ("+", a, b))
            node = rng.choice(self.sources)
            if rng.random() < 0.5:
                yield "read", _query("_(b) <- reach({}, b).".format(node))
            else:
                yield "read", _query(
                    "_(n) <- reachable[{}] = n.".format(node))

    def check(self, session, records):
        errors = []
        expected = set(self.edges)
        for r in records:
            if r.ok and r.kind in ("commit", "delete_commit"):
                sign, a, b = r.result[0]
                (expected.discard if sign == "-" else expected.add)((a, b))
        edges = set(session.rows("edge"))
        if edges != expected:
            errors.append("edge set differs from committed deletes/inserts")
        reach = closure(edges)
        if set(session.rows("reach")) != reach:
            errors.append("reach differs from a plain-Python closure")
        counts = {}
        for a, _ in reach:
            counts[a] = counts.get(a, 0) + 1
        if dict(session.rows("reachable")) != counts:
            errors.append("reachable counts differ from the closure")
        return errors


# -- analytic_graph ------------------------------------------------------------


class AnalyticGraph(Workload):
    """Read-only joins, scans and point queries on a power-law graph."""

    name = "analytic_graph"
    primary = "join_query"
    # one session: two sessions of this rotation on one server drift in
    # and out of running their triangle counts at the same time, which
    # doubles that query's latency for as long as they stay in step
    clients = 1
    nodes = 2000
    edges_per_node = 4
    point_queries = 8

    SCHEMA = """
        edge(a, b) -> int(a), int(b).
        deg[a] = n <- agg<<n = count(b)>> edge(a, b).
    """
    TRIANGLES = ("_(n) <- agg<<n = count(c)>> edge(a, b), edge(b, c), "
                 "edge(a, c), a < b, b < c.")
    SCAN = "_(a, n) <- deg[a] = n."

    def __init__(self, seed):
        from repro.datasets.graphs import powerlaw_graph

        self.edges = powerlaw_graph(self.nodes, self.edges_per_node, seed=seed)
        self.adj = {}
        for a, b in self.edges:
            self.adj.setdefault(a, set()).add(b)
        self.triangles = count_triangles(self.edges)
        self.seed = seed

    def setup(self, session):
        session.addblock(self.SCHEMA, name="schema")
        session.load("edge", self.edges)

    def streams(self, sessions):
        return [(s, self._ops(i)) for i, s in enumerate(sessions)]

    def _ops(self, index):
        rng = rng_for(self.seed, self.name, "ops", index)
        rotation = 2 + self.point_queries
        for step in itertools.count():
            slot = step % rotation
            if slot == 0:
                yield "join_query", _query(self.TRIANGLES, "tri")
            elif slot == 1:
                yield "scan_query", _query(self.SCAN, "scan")
            else:
                node = rng.randrange(self.nodes)
                yield "read", _query(
                    "_(c) <- edge({}, b), edge(b, c).".format(node), node)

    def two_hop(self, node):
        return {c for b in self.adj.get(node, ()) for c in self.adj.get(b, ())}

    def check(self, session, records):
        errors = []
        for r in records:
            if not r.ok:
                continue
            tag, rows = r.result
            if tag == "tri":
                if rows != [(self.triangles,)]:
                    errors.append("triangle count {} != {}".format(
                        rows, self.triangles))
                    break
            elif tag == "scan":
                if len(rows) != self.nodes or sum(n for _, n in rows) != len(
                        self.edges):
                    errors.append("degree scan returned wrong rows")
                    break
            elif {c for (c,) in rows} != self.two_hop(tag):
                errors.append("two-hop answer for {} is wrong".format(tag))
                break
        return errors


# -- sharded_transfers ---------------------------------------------------------


class ShardedTransfers(Workload):
    """Balance transfers through a shard coordinator over two servers."""

    name = "sharded_transfers"
    primary = "cross_commit"
    clients = 1         # the coordinator is one-thread-at-a-time
    shards = 2
    accounts = 1000
    sum_every = 10

    SCHEMA = """
        balance[a] = v -> int(a), int(v).
        balance[a] = v -> v >= 0.
    """
    SUM = "_(t) <- agg<<t = sum(v)>> balance[a] = v."

    def __init__(self, seed):
        rng = rng_for(seed, self.name, "data")
        self.balance = {a: rng.randint(1000, 9999) for a in range(self.accounts)}
        self.total = sum(self.balance.values())
        self.seed = seed

    def server_args(self, workdir, label):
        index = int(label.rsplit("-", 1)[1])
        return ["--shard-index", str(index), "--shard-count", str(self.shards)]

    def connect(self, endpoints):
        from repro.shard import ShardedWorkspace
        return ShardedWorkspace.connect(endpoints, {"balance": 0})

    def setup(self, session):
        session.addblock(self.SCHEMA, name="schema")
        session.load("balance", sorted(self.balance.items()))

    def streams(self, sessions):
        (coordinator,) = sessions
        return [(coordinator, self._ops(coordinator.shard_map))]

    def _ops(self, shard_map):
        # a fixed pattern: a scattered sum every tenth op, and of the
        # rest, transfers and point reads alternating 3:2 with transfers
        # alternating between one shard and across shards
        rng = rng_for(self.seed, self.name, "ops")
        owned = {}
        for account in range(self.accounts):
            owned.setdefault(shard_map.shard_of_key(account), []).append(
                account)
        shards = sorted(owned)
        transfers = 0
        for step in itertools.count(1):
            if step % self.sum_every == 0:
                yield "scan_query", _query(self.SUM, "sum")
            elif step % 5 in (1, 2, 4):
                transfers += 1
                cross = transfers % 2 == 0
                home, away = rng.sample(shards, 2)
                a = rng.choice(owned[home])
                b = rng.choice(owned[away if cross else home])
                while b == a:
                    b = rng.choice(owned[home])
                amount = rng.randint(1, 9)
                text = ("^balance[{0}] = x - {2} <- balance@start[{0}] = x.\n"
                        "^balance[{1}] = y + {2} <- balance@start[{1}] = y."
                        ).format(a, b, amount)
                yield ("cross_commit" if cross else "commit",
                       _exec(text, (a, b, amount)))
            else:
                a = rng.randrange(self.accounts)
                yield "read", _query("_(v) <- balance[{}] = v.".format(a), a)

    def check(self, session, records):
        errors = []
        expected = dict(self.balance)
        for r in records:
            if r.ok and r.kind in ("commit", "cross_commit"):
                a, b, amount = r.result[0]
                expected[a] -= amount
                expected[b] += amount
        actual = dict(session.rows("balance"))
        if sum(actual.values()) != self.total:
            errors.append("total balance {} is not the conserved {}".format(
                sum(actual.values()), self.total))
        if actual != expected:
            errors.append("balances differ from the committed transfers")
        for r in records:
            if r.ok and r.kind == "scan_query" and r.result[1] != [(self.total,)]:
                errors.append("scattered sum {} != {}".format(
                    r.result[1], self.total))
                break
        return errors


WORKLOADS = {w.name: w for w in (OltpInventory, GraphViews, AnalyticGraph,
                                  ShardedTransfers)}
