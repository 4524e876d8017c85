"""Trace loading, round-tripping, summaries and the HTML replay viewer.

A trace is replayable when every payload survives
``from_payload`` -> ``to_payload`` unchanged — that is the contract
``python -m repro trace replay`` enforces, and what guarantees a
processor consuming reconstructed events sees exactly what the
emitting process saw.

The HTML viewer animates the gathering dance: agents walking the port
graph round by round, reconstructed from ``SimulationStart`` (the
graph), ``AgentMove`` events and expanded ``WalkSegment`` routes —
the same expansion trace mode applies to ``move_log``.  Scenes are
delimited by ``SimulationStart``/``SimulationEnd`` pairs.
"""

from __future__ import annotations

import json

from .schema import validate_header
from .types import from_payload, to_payload

_SIM_EVENTS = {
    "SimulationStart",
    "SimulationEnd",
    "RoundAdvance",
    "AgentMove",
    "WalkSegment",
    "WatchFired",
}


def load_trace(path) -> tuple[dict, list[dict]]:
    """Read a JSONL trace: ``(header, payloads)``.

    Raises ``ValueError`` on a malformed file (bad JSON, bad header).
    """
    header: dict | None = None
    payloads: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if header is None:
                problems = validate_header(payload)
                if problems:
                    raise ValueError(f"{path}:{lineno}: {problems[0]}")
                header = payload
                continue
            payloads.append(payload)
    if header is None:
        raise ValueError(f"{path}: empty trace (missing schema header)")
    return header, payloads


def round_trip(payloads: list[dict]) -> int:
    """Assert payload -> event -> payload identity for every payload.

    Returns the number of events checked; raises ``ValueError`` with
    the offending index on the first mismatch.
    """
    for index, payload in enumerate(payloads):
        event = from_payload(payload)
        again = to_payload(event)
        if again != payload:
            raise ValueError(
                f"event {index} ({payload.get('type')}) does not "
                f"round-trip: {payload!r} -> {again!r}"
            )
    return len(payloads)


def summarize(payloads: list[dict]) -> dict:
    """Per-type counts plus trial/simulation tallies."""
    counts: dict[str, int] = {}
    for payload in payloads:
        name = payload.get("type", "?")
        counts[name] = counts.get(name, 0) + 1
    return {
        "events": len(payloads),
        "counts": dict(sorted(counts.items())),
        "simulations": counts.get("SimulationStart", 0),
        "trials": counts.get("TrialStart", 0),
    }


# --------------------------------------------------------------------
# Scene extraction — one scene per SimulationStart..SimulationEnd span
# --------------------------------------------------------------------


def _expand_moves(payload) -> list[tuple]:
    """Per-edge ``(round, agent, src, dst)`` rows for one sim event."""
    kind = payload["type"]
    if kind == "AgentMove":
        return [(payload["round"], payload["agent"], payload["src"], payload["dst"])]
    if kind == "WalkSegment":
        rows = []
        base = payload["round"]
        for agent, route in zip(payload["walkers"], payload["routes"]):
            for j in range(payload["length"]):
                rows.append((base + j, agent, route[j], route[j + 1]))
        return rows
    return []


def extract_scenes(payloads: list[dict], *, max_frames: int = 5000) -> list[dict]:
    """Build animation scenes from a trace.

    Each scene: ``{"n", "edges", "agents", "frames", "truncated"}``
    where ``frames`` is a list of ``{"round": str, "moves": [[agent,
    src, dst], ...], "watches": [[agent, node], ...]}`` in round order.
    Rounds are rendered as strings — they may exceed 2**53 and must
    not be parsed as JS numbers.
    """
    scenes: list[dict] = []
    current: dict | None = None
    moves: list[tuple] = []
    watches: list[tuple] = []

    def flush() -> None:
        nonlocal current, moves, watches
        if current is None:
            return
        frames: list[dict] = []
        for round_, agent, src, dst in moves:
            key = str(round_)
            if not frames or frames[-1]["round"] != key:
                frames.append({"round": key, "moves": [], "watches": []})
            frames[-1]["moves"].append([agent, src, dst])
        frame_by_round = {f["round"]: f for f in frames}
        for round_, agent, node in watches:
            frame = frame_by_round.get(str(round_))
            if frame is not None:
                frame["watches"].append([agent, node])
        truncated = len(frames) > max_frames
        current["frames"] = frames[:max_frames]
        current["truncated"] = truncated
        scenes.append(current)
        current, moves, watches = None, [], []

    for payload in payloads:
        kind = payload.get("type")
        if kind not in _SIM_EVENTS:
            continue
        if kind == "SimulationStart":
            flush()
            current = {
                "n": payload["n"],
                "edges": payload["edges"],
                "agents": payload["agents"],
            }
        elif current is None:
            continue
        elif kind == "SimulationEnd":
            current["final_round"] = str(payload["final_round"])
            current["gathered"] = payload["gathered"]
            flush()
        elif kind == "WatchFired":
            watches.append((payload["round"], payload["agent"], payload["node"]))
        else:
            moves.extend(_expand_moves(payload))
    flush()
    return scenes


# --------------------------------------------------------------------
# HTML viewer
# --------------------------------------------------------------------

_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro trace replay</title>
<style>
  body { font-family: system-ui, sans-serif; margin: 1rem; background: #14161a; color: #e6e6e6; }
  h1 { font-size: 1.1rem; font-weight: 600; }
  #controls { margin: 0.5rem 0; display: flex; gap: 0.5rem; align-items: center; flex-wrap: wrap; }
  button, select { background: #2a2e36; color: #e6e6e6; border: 1px solid #444; border-radius: 4px; padding: 0.25rem 0.7rem; cursor: pointer; }
  input[type=range] { width: 240px; }
  #round { font-variant-numeric: tabular-nums; min-width: 9ch; }
  svg { background: #1b1e24; border: 1px solid #333; border-radius: 6px; }
  .edge { stroke: #4a5060; stroke-width: 1.5; }
  .node { fill: #2f3542; stroke: #7a8294; }
  .node.watch { stroke: #e8c15a; stroke-width: 3; }
  .nlabel { fill: #9aa3b2; font-size: 11px; text-anchor: middle; }
  .agent { stroke: #0b0c0e; stroke-width: 1; transition: cx 0.18s linear, cy 0.18s linear; }
  .alabel { fill: #14161a; font-size: 9px; text-anchor: middle; font-weight: 700; }
  #status { color: #9aa3b2; font-size: 0.85rem; }
</style>
</head>
<body>
<h1>Gathering replay — agents walking the port graph</h1>
<div id="controls">
  <select id="scene"></select>
  <button id="play">▶ play</button>
  <button id="step">step</button>
  <input id="slider" type="range" min="0" value="0">
  <span id="round">round —</span>
  <select id="speed">
    <option value="600">slow</option>
    <option value="250" selected>normal</option>
    <option value="80">fast</option>
  </select>
</div>
<svg id="view" width="720" height="520" viewBox="0 0 720 520"></svg>
<div id="status"></div>
<script>
const SCENES = __SCENES__;
const COLORS = ["#e06c75","#61afef","#98c379","#c678dd","#e5c07b",
                "#56b6c2","#d19a66","#abb2bf"];
const svg = document.getElementById("view");
const NS = "http://www.w3.org/2000/svg";
let scene = null, frame = -1, positions = [], timer = null;

function layout(n) {
  const cx = 360, cy = 250, r = Math.min(200, 40 + 14 * n);
  const pts = [];
  for (let i = 0; i < n; i++) {
    const a = -Math.PI / 2 + 2 * Math.PI * i / n;
    pts.push([cx + r * Math.cos(a), cy + r * Math.sin(a)]);
  }
  return pts;
}

function el(name, attrs, parent) {
  const e = document.createElementNS(NS, name);
  for (const k in attrs) e.setAttribute(k, attrs[k]);
  (parent || svg).appendChild(e);
  return e;
}

function agentXY(node, slot, total) {
  const [x, y] = scene.pts[node];
  if (total === 1) return [x, y - 0];
  const a = 2 * Math.PI * slot / total;
  return [x + 11 * Math.cos(a), y + 11 * Math.sin(a)];
}

function drawScene() {
  svg.innerHTML = "";
  scene.pts = layout(scene.n);
  for (const [u, , v] of scene.edges.map(e => [e[0], e[1], e[2]])) {
    const [x1, y1] = scene.pts[u], [x2, y2] = scene.pts[v];
    if (u === v) continue;
    el("line", {x1, y1, x2, y2, class: "edge"});
  }
  scene.nodeEls = [];
  scene.pts.forEach(([x, y], i) => {
    scene.nodeEls.push(el("circle", {cx: x, cy: y, r: 14, class: "node"}));
    el("text", {x, y: y + 4, class: "nlabel"}).textContent = i;
  });
  scene.agentEls = [];
  scene.agents.forEach((a, i) => {
    const color = COLORS[i % COLORS.length];
    const g = el("g", {});
    const c = el("circle", {r: 7, class: "agent", fill: color}, g);
    const t = el("text", {class: "alabel", dy: 3}, g);
    t.textContent = a[0];
    scene.agentEls.push({g, c, t});
  });
  positions = scene.agents.map(a => a[1]);
  placeAgents();
}

function placeAgents() {
  const byNode = {};
  positions.forEach((p, i) => { (byNode[p] = byNode[p] || []).push(i); });
  positions.forEach((p, i) => {
    const group = byNode[p], slot = group.indexOf(i);
    const [x, y] = agentXY(p, slot, group.length);
    const {c, t} = scene.agentEls[i];
    c.setAttribute("cx", x); c.setAttribute("cy", y);
    t.setAttribute("x", x); t.setAttribute("y", y);
  });
}

function applyFrame(k) {
  // Recompute from scratch up to frame k so the slider can seek.
  positions = scene.agents.map(a => a[1]);
  scene.nodeEls.forEach(n => n.classList.remove("watch"));
  for (let i = 0; i <= k && i < scene.frames.length; i++)
    for (const [agent, , dst] of scene.frames[i].moves)
      positions[agent] = dst;
  if (k >= 0 && k < scene.frames.length)
    for (const [, node] of scene.frames[k].watches)
      scene.nodeEls[node].classList.add("watch");
  placeAgents();
  frame = k;
  document.getElementById("slider").value = k + 1;
  const label = k < 0 ? "start" : scene.frames[k].round;
  document.getElementById("round").textContent = "round " + label;
  const done = k >= scene.frames.length - 1;
  const tail = scene.truncated ? " (truncated)" :
    done && scene.gathered !== undefined ?
      (scene.gathered ? " — gathered ✔" : " — not gathered") : "";
  document.getElementById("status").textContent =
    "frame " + (k + 1) + "/" + scene.frames.length + tail;
}

function stop() { if (timer) { clearInterval(timer); timer = null; }
                  document.getElementById("play").textContent = "▶ play"; }

function play() {
  if (timer) { stop(); return; }
  if (frame >= scene.frames.length - 1) applyFrame(-1);
  document.getElementById("play").textContent = "❚❚ pause";
  timer = setInterval(() => {
    if (frame >= scene.frames.length - 1) { stop(); return; }
    applyFrame(frame + 1);
  }, +document.getElementById("speed").value);
}

function loadScene(i) {
  stop();
  scene = SCENES[i];
  const slider = document.getElementById("slider");
  slider.max = scene.frames.length;
  drawScene();
  applyFrame(-1);
}

const sel = document.getElementById("scene");
SCENES.forEach((s, i) => {
  const o = document.createElement("option");
  o.value = i;
  o.textContent = "simulation " + (i + 1) + " (n=" + s.n + ", " +
                  s.agents.length + " agents, " + s.frames.length + " frames)";
  sel.appendChild(o);
});
sel.onchange = () => loadScene(+sel.value);
document.getElementById("play").onclick = play;
document.getElementById("step").onclick = () => {
  stop();
  if (frame < scene.frames.length - 1) applyFrame(frame + 1);
};
document.getElementById("slider").oninput = e => {
  stop(); applyFrame(+e.target.value - 1);
};
if (SCENES.length) loadScene(0);
else document.getElementById("status").textContent =
  "trace contains no simulation events";
</script>
</body>
</html>
"""


def render_html(payloads: list[dict], out_path) -> int:
    """Write the self-contained replay viewer; returns scene count."""
    scenes = extract_scenes(payloads)
    blob = json.dumps(scenes, separators=(",", ":"))
    html = _HTML_TEMPLATE.replace("__SCENES__", blob)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(html)
    return len(scenes)
