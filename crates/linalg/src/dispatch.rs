//! One kernel source, two builds: the baseline target and AVX2.
//!
//! A row kernel that keeps many independent accumulators in registers
//! runs much faster with 256-bit registers, but the workspace builds for
//! the baseline `x86_64` target. [`avx2_dispatch!`](crate::avx2_dispatch)
//! compiles one `#[inline(always)]` body twice, once as built and once
//! inside a `#[target_feature(enable = "avx2")]` wrapper, and each call
//! takes the AVX2 build when the running CPU has it. Other hosts run the
//! body as built.
//!
//! Both builds round alike: the `fma` feature stays off, and Rust never
//! fuses `a·b + c` on its own, so every multiply and every add rounds on
//! its own in either build. A body that keeps its operands, start values
//! and order of summation therefore gives the same bits in both, and a
//! test that calls the dispatched function and the body directly checks
//! both builds on an AVX2 host.

/// Defines `fn $name` as the `#[inline(always)]` function `$body`,
/// compiled twice: the AVX2 build runs when the CPU has AVX2 (checked
/// with `std::is_x86_feature_detected!`, which caches its answer), the
/// baseline build otherwise and on every host that is not `x86_64`. The
/// return type may be left out, as for any function returning `()`.
///
/// ```
/// #[inline(always)]
/// fn sum_body(x: &[f64]) -> f64 {
///     x.iter().fold(0.0, |a, &b| a + b)
/// }
/// sider_linalg::avx2_dispatch! {
///     /// Ascending sum from `+0.0`, the same bits in either build.
///     fn sum(x: &[f64]) -> f64 => sum_body
/// }
/// assert_eq!(sum(&[1.0, 2.0]), sum_body(&[1.0, 2.0]));
/// ```
#[macro_export]
macro_rules! avx2_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? => $body:path
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if ::std::is_x86_feature_detected!("avx2") {
                    // SAFETY: the running CPU supports AVX2, checked just
                    // above, which is all the AVX2 build requires.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}
