"""Scratch mutations of the window handover, each run against the tests meant to catch it.

usage: python3 results/pr56/mutate.py REPO SCRATCH [M1 M2 ...]

Copies REPO's tracked and untracked files into SCRATCH/mut, applies one
mutation, runs the named tests there (target dir SCRATCH/mut_target), and
prints the failing tests and their messages. REPO itself is never edited.
"""
import subprocess, sys, os, shutil
REPO, SCRATCH = sys.argv[1], sys.argv[2]
MUT = os.path.join(SCRATCH, 'mut')
OP='crates/confluence-core/src/window/operator.rs'
muts = [
 ("M1 skip expire in the handover", OP,
  "        buffer.iter().for_each(|event| self.expire(event));\n", "",
  ["-p","confluence-core","--lib","window::operator"]),
 ("M2 hand the buffer over in storage order (back slice first)", OP,
  "        let mut events = Vec::from(std::mem::take(buffer));\n",
  "        let (a, b) = buffer.as_slices();\n        let mut events = [b, a].concat();\n        buffer.clear();\n",
  ["-p","confluence-core","--lib","window::operator"]),
 ("M3 storage order on flushed (timed-out) windows only", OP,
  "        let mut events = Vec::from(std::mem::take(buffer));\n",
  "        let mut events = if timed_out { let (a, b) = buffer.as_slices(); let v = [b, a].concat(); buffer.clear(); v } else { Vec::from(std::mem::take(buffer)) };\n",
  ["-p","confluence-core","--lib","window::operator"]),
 ("M4 rotate the buffer by one before the handover", OP,
  "        let mut events = Vec::from(std::mem::take(buffer));\n",
  "        buffer.rotate_left(1);\n        let mut events = Vec::from(std::mem::take(buffer));\n",
  ["-p","confluence-core","--lib","window::operator"]),
 ("M5 a time window takes the buffer when its last event is below the window's end only (ignores the events that stay)", OP,
  "e.timestamp.as_micros() < cutoff.min(hi))", "e.timestamp.as_micros() < hi)",
  ["-p","confluence-core","--lib","window::operator"]),
 ("M6 no shrink_to_fit on the handed-over buffer", OP,
  "        events.shrink_to_fit();\n", "",
  ["--release","-p","confluence","--test","event_footprint"]),
 ("M8 no handover in a time window (it copies, as at the parent)", OP,
  "                out.emit_buffer(&mut self.events, now, false);\n                continue;\n", "",
  ["--release","-p","confluence-core","--test","window_footprint"]),
 ("M7 no handover in a tuple window (it copies, as at the parent)", OP,
  "            return out.emit_buffer(&mut self.events, now, timed_out);\n", "",
  ["--release","-p","confluence-core","--test","window_footprint"]),
]
only = sys.argv[3:]
for name, path, old, new, args in muts:
    if only and name.split()[0] not in only: continue
    if os.path.exists(MUT): shutil.rmtree(MUT)
    os.makedirs(MUT)
    subprocess.run("git ls-files -co --exclude-standard | tar -cf - -T - | tar -xf - -C "+MUT, shell=True, cwd=REPO, check=True)
    p=os.path.join(MUT,path); s=open(p).read()
    assert s.count(old)==1, name
    open(p,'w').write(s.replace(old,new))
    env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(SCRATCH, 'mut_target'))
    r=subprocess.run(["cargo","test","-q"]+args, cwd=MUT, capture_output=True, text=True, env=env)
    out=r.stdout+r.stderr
    lines=[l for l in out.splitlines() if ("panicked" in l or l.startswith("test result") or "FAILED" in l or "left:" in l or "right:" in l or "allocations" in l or "peak live" in l or l.startswith("error"))]
    print(f"## {name}\n# cargo test {' '.join(args)}  (exit {r.returncode})")
    print("\n".join(l if len(l) < 240 else l[:240] + " …" for l in lines[:14])); print(flush=True)
