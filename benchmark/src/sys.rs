//! What the benchmark reads from the operating system — process CPU
//! time, peak resident memory, load average, core count — and the one
//! thing it asks of it: to keep the virtual CPUs awake.

use std::process::{Child, Command, ExitCode, Stdio};

/// Clock ticks per second of `/proc/<pid>/stat` times (USER_HZ, 100 on
/// every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, every thread, live or joined) in
/// seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields are counted after the parenthesised comm, which may itself
    // hold spaces: utime and stime are the 14th and 15th overall.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime field")
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Seconds, summed over the cores, that the hypervisor ran something
/// else while this guest had work to do (`steal` of `/proc/stat`), since
/// boot; 0 where the kernel does not say.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `"unknown"`.
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Linux `SCHED_IDLE`: runs only when the CPU has nothing else to do,
/// and is preempted at once by any other thread that wakes.
const SCHED_IDLE: i32 = 5;

extern "C" {
    /// `param` points at a `struct sched_param`, which is one `int`.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Body of the hidden `spin` subcommand: moves this process to
/// `SCHED_IDLE` and spins until it is killed, or until the process that
/// started it is gone. Refuses to spin at any other priority.
pub fn spin() -> ExitCode {
    let parent = std::os::unix::process::parent_id();
    let priority = 0i32;
    // SAFETY: `priority` is a live `int`, which is all of `sched_param`.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
        return ExitCode::FAILURE;
    }
    while std::os::unix::process::parent_id() == parent {
        for _ in 0..1_000_000 {
            std::hint::spin_loop();
        }
    }
    ExitCode::SUCCESS
}

/// One `SCHED_IDLE` spinner process per core, for as long as the value
/// lives: the cores never go idle, so a thread that wakes preempts a
/// spinner instead of waiting for the hypervisor to schedule a halted
/// virtual CPU again (see README, "Keeping the virtual CPUs awake").
/// Child processes, so their CPU time is not the benchmark's.
pub struct KeepAwake(Vec<Child>);

impl KeepAwake {
    pub fn start(cores: usize) -> Self {
        let spinner = || {
            Command::new(std::env::current_exe().ok()?)
                .arg("spin")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .ok()
        };
        let mut awake = KeepAwake((0..cores).filter_map(|_| spinner()).collect());
        // A spinner that could not get the idle class has exited by now.
        std::thread::sleep(std::time::Duration::from_millis(50));
        awake.0.retain_mut(|c| matches!(c.try_wait(), Ok(None)));
        awake
    }

    /// How many spinners are running.
    pub fn spinners(&self) -> usize {
        self.0.len()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
